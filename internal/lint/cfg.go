package lint

import (
	"go/ast"
)

// cfg.go is the shared control-flow layer for the interprocedural passes
// (effect-order, lockset). It builds a basic-block graph for one function
// body from nothing but the AST — no golang.org/x/tools dependency, so the
// module keeps its empty go.mod.
//
// A block holds the AST nodes executed straight-line, in order. Structured
// statements are decomposed: an if contributes its init and condition to
// the current block and branches into then/else blocks; a for contributes
// a head block (re-evaluated each iteration) whose body edge loops back; a
// select contributes one block per communication clause. Only the node
// kinds that carry effects are stored (simple statements and the
// evaluated-here fragments of compound ones), so analyses can walk
// block.Nodes with ast.Inspect without re-entering nested statement trees.
// Function literals are NOT descended into — each literal is its own CFG,
// built by the analysis that needs it.
//
// Loop back edges are marked so forward (may) analyses can run one pass
// over the DAG, while must analyses (lockset) include them and iterate to
// a fixpoint.

// Edge is one control-flow successor. Back marks a loop back edge.
type Edge struct {
	To   *Block
	Back bool
}

// Block is one basic block. Guard, when set, is the if-condition this block
// is the branch of: the block runs only when Cond evaluated to Taken.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []Edge
	Guard *BlockGuard
}

// BlockGuard is the condition under which a branch block is entered.
type BlockGuard struct {
	Cond  ast.Expr
	Taken bool // true: the then-branch; false: the else-branch
}

// CFG is the control-flow graph of one function body. Entry is Blocks[0];
// Exit is the single synthetic exit block every return reaches. Deferred
// calls run on function exit, so their call expressions are appended to
// the Exit block (in LIFO order) rather than at their syntactic position.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// cfgBuilder carries the state of one build.
type cfgBuilder struct {
	g *CFG
	// breakTargets/continueTargets are stacks of the innermost enclosing
	// targets; labels map labeled loops/switches to their targets.
	breakTargets    []*Block
	continueTargets []*Block
	labelBreak      map[string]*Block
	labelContinue   map[string]*Block
	// contExit maps each loop's continue target to that loop's exit block,
	// so back edges can be given forward shadow edges (see edge comments).
	contExit map[*Block]*Block
	defers   []ast.Node
}

// BuildCFG constructs the CFG of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		g:             &CFG{},
		labelBreak:    make(map[string]*Block),
		labelContinue: make(map[string]*Block),
		contExit:      make(map[*Block]*Block),
	}
	entry := b.newBlock()
	b.g.Entry = entry
	exit := b.newBlock() // allocated early so returns can target it
	b.g.Exit = exit
	last := b.stmtList(entry, body.List)
	if last != nil {
		b.edge(last, exit, false)
	}
	// Deferred calls execute on every exit path, LIFO.
	for i := len(b.defers) - 1; i >= 0; i-- {
		exit.Nodes = append(exit.Nodes, b.defers[i])
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, back bool) {
	from.Succs = append(from.Succs, Edge{To: to, Back: back})
}

// backEdge wires a loop back edge plus a forward "shadow" edge to the
// loop's exit. The shadow edge represents the real path back-edge →
// head → exit, so a may-analysis that cuts back edges (each iteration is
// a fresh Ready batch) still sees loop-body facts after the loop. A must
// analysis iterates through back edges anyway, so the shadow changes
// nothing for it.
func (b *cfgBuilder) backEdge(from, to, loopExit *Block) {
	b.edge(from, to, true)
	b.edge(from, loopExit, false)
}

// stmtList threads a statement list through cur, returning the block the
// list falls out of (nil if every path left — return/break/continue).
func (b *cfgBuilder) stmtList(cur *Block, stmts []ast.Stmt) *Block {
	for _, s := range stmts {
		if cur == nil {
			// Dead code after a terminating statement; give it its own
			// unreachable block so its nodes still exist for other tools,
			// but nothing flows in.
			cur = b.newBlock()
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt adds one statement, returning the fall-through block (nil if the
// statement never falls through).
func (b *cfgBuilder) stmt(cur *Block, s ast.Stmt) *Block {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, st.List)

	case *ast.LabeledStmt:
		return b.labeled(cur, st)

	case *ast.IfStmt:
		if st.Init != nil {
			cur.Nodes = append(cur.Nodes, st.Init)
		}
		cur.Nodes = append(cur.Nodes, st.Cond)
		thenB := b.newBlock()
		thenB.Guard = &BlockGuard{Cond: st.Cond, Taken: true}
		b.edge(cur, thenB, false)
		thenOut := b.stmtList(thenB, st.Body.List)
		// An if without else still gets its (empty) else block, so the path
		// that skips the body carries the guard too.
		elseB := b.newBlock()
		elseB.Guard = &BlockGuard{Cond: st.Cond}
		b.edge(cur, elseB, false)
		elseOut := elseB
		if st.Else != nil {
			elseOut = b.stmt(elseB, st.Else)
		}
		join := b.newBlock()
		if thenOut != nil {
			b.edge(thenOut, join, false)
		}
		if elseOut != nil {
			b.edge(elseOut, join, false)
		}
		return join

	case *ast.ForStmt:
		return b.forStmt(cur, st, "")

	case *ast.RangeStmt:
		return b.rangeStmt(cur, st, "")

	case *ast.SwitchStmt:
		if st.Init != nil {
			cur.Nodes = append(cur.Nodes, st.Init)
		}
		if st.Tag != nil {
			cur.Nodes = append(cur.Nodes, st.Tag)
		}
		return b.switchClauses(cur, st.Body.List, "")

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			cur.Nodes = append(cur.Nodes, st.Init)
		}
		cur.Nodes = append(cur.Nodes, st.Assign)
		return b.switchClauses(cur, st.Body.List, "")

	case *ast.SelectStmt:
		return b.selectStmt(cur, st, "")

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, st)
		b.edge(cur, b.g.Exit, false)
		return nil

	case *ast.BranchStmt:
		return b.branch(cur, st)

	case *ast.DeferStmt:
		// The call's function and arguments are evaluated here; the call
		// itself runs at function exit.
		cur.Nodes = append(cur.Nodes, st)
		b.defers = append(b.defers, st.Call)
		return cur

	default:
		// Simple statements: expr, assign, incdec, send, go, decl, empty.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// labeled handles a labeled statement by pre-registering the label's break
// (and, for loops, continue) targets before building the body.
func (b *cfgBuilder) labeled(cur *Block, st *ast.LabeledStmt) *Block {
	name := st.Label.Name
	switch inner := st.Stmt.(type) {
	case *ast.ForStmt:
		return b.forStmt(cur, inner, name)
	case *ast.RangeStmt:
		return b.rangeStmt(cur, inner, name)
	case *ast.SwitchStmt:
		if inner.Init != nil {
			cur.Nodes = append(cur.Nodes, inner.Init)
		}
		if inner.Tag != nil {
			cur.Nodes = append(cur.Nodes, inner.Tag)
		}
		return b.switchClauses(cur, inner.Body.List, name)
	case *ast.TypeSwitchStmt:
		if inner.Init != nil {
			cur.Nodes = append(cur.Nodes, inner.Init)
		}
		cur.Nodes = append(cur.Nodes, inner.Assign)
		return b.switchClauses(cur, inner.Body.List, name)
	case *ast.SelectStmt:
		return b.selectStmt(cur, inner, name)
	default:
		return b.stmt(cur, st.Stmt)
	}
}

func (b *cfgBuilder) forStmt(cur *Block, st *ast.ForStmt, label string) *Block {
	if st.Init != nil {
		cur.Nodes = append(cur.Nodes, st.Init)
	}
	head := b.newBlock()
	b.edge(cur, head, false)
	if st.Cond != nil {
		head.Nodes = append(head.Nodes, st.Cond)
	}
	exit := b.newBlock()
	if st.Cond != nil {
		b.edge(head, exit, false)
	}
	// continue re-runs Post (when present) before looping to head.
	contTarget := head
	var post *Block
	if st.Post != nil {
		post = b.newBlock()
		post.Nodes = append(post.Nodes, st.Post)
		b.backEdge(post, head, exit)
		contTarget = post
	}
	b.contExit[contTarget] = exit
	b.pushLoop(exit, contTarget, label)
	body := b.newBlock()
	b.edge(head, body, false)
	out := b.stmtList(body, st.Body.List)
	if out != nil {
		if post != nil {
			b.edge(out, post, false)
		} else {
			b.backEdge(out, head, exit)
		}
	}
	b.popLoop(label)
	delete(b.contExit, contTarget)
	return exit
}

func (b *cfgBuilder) rangeStmt(cur *Block, st *ast.RangeStmt, label string) *Block {
	head := b.newBlock()
	b.edge(cur, head, false)
	// The ranged expression and per-iteration key/value assignment live in
	// the head (re-entered each iteration).
	head.Nodes = append(head.Nodes, st.X)
	exit := b.newBlock()
	b.edge(head, exit, false)
	b.contExit[head] = exit
	b.pushLoop(exit, head, label)
	body := b.newBlock()
	b.edge(head, body, false)
	out := b.stmtList(body, st.Body.List)
	if out != nil {
		b.backEdge(out, head, exit)
	}
	b.popLoop(label)
	delete(b.contExit, head)
	return exit
}

// switchClauses wires a (type) switch's case clauses between head and a
// join block. Case expressions are evaluated on entry to their clause.
func (b *cfgBuilder) switchClauses(head *Block, clauses []ast.Stmt, label string) *Block {
	join := b.newBlock()
	// break inside a switch targets the join.
	b.breakTargets = append(b.breakTargets, join)
	if label != "" {
		b.labelBreak[label] = join
	}
	hasDefault := false
	var caseBlocks []*Block
	var caseOuts []*Block
	for _, cs := range clauses {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cb := b.newBlock()
		b.edge(head, cb, false)
		for _, e := range cc.List {
			cb.Nodes = append(cb.Nodes, e)
		}
		out := b.stmtList(cb, cc.Body)
		caseBlocks = append(caseBlocks, cb)
		caseOuts = append(caseOuts, out)
	}
	for i, out := range caseOuts {
		if out == nil {
			continue
		}
		// fallthrough transfers to the next clause's block.
		if ft := endsInFallthrough(clauses, i); ft && i+1 < len(caseBlocks) {
			b.edge(out, caseBlocks[i+1], false)
		} else {
			b.edge(out, join, false)
		}
	}
	if !hasDefault {
		b.edge(head, join, false)
	}
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	if label != "" {
		delete(b.labelBreak, label)
	}
	return join
}

func endsInFallthrough(clauses []ast.Stmt, i int) bool {
	cc, ok := clauses[i].(*ast.CaseClause)
	if !ok || len(cc.Body) == 0 {
		return false
	}
	br, ok := cc.Body[len(cc.Body)-1].(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

func (b *cfgBuilder) selectStmt(cur *Block, st *ast.SelectStmt, label string) *Block {
	join := b.newBlock()
	b.breakTargets = append(b.breakTargets, join)
	if label != "" {
		b.labelBreak[label] = join
	}
	for _, cs := range st.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		cb := b.newBlock()
		b.edge(cur, cb, false)
		if cc.Comm != nil {
			cb.Nodes = append(cb.Nodes, cc.Comm)
		}
		if out := b.stmtList(cb, cc.Body); out != nil {
			b.edge(out, join, false)
		}
	}
	// A select with no clauses blocks forever; otherwise every path runs
	// exactly one clause, so there is no direct cur→join edge.
	if len(st.Body.List) == 0 {
		b.edge(cur, join, false)
	}
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	if label != "" {
		delete(b.labelBreak, label)
	}
	return join
}

func (b *cfgBuilder) pushLoop(brk, cont *Block, label string) {
	b.breakTargets = append(b.breakTargets, brk)
	b.continueTargets = append(b.continueTargets, cont)
	if label != "" {
		b.labelBreak[label] = brk
		b.labelContinue[label] = cont
	}
}

func (b *cfgBuilder) popLoop(label string) {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
	if label != "" {
		delete(b.labelBreak, label)
		delete(b.labelContinue, label)
	}
}

// continueEdge wires a continue jump: a back edge to the loop's continue
// target, with the shadow edge to that loop's exit.
func (b *cfgBuilder) continueEdge(cur, target *Block) {
	if exit, ok := b.contExit[target]; ok {
		b.backEdge(cur, target, exit)
	} else {
		b.edge(cur, target, true)
	}
}

func (b *cfgBuilder) branch(cur *Block, st *ast.BranchStmt) *Block {
	switch st.Tok.String() {
	case "break":
		if st.Label != nil {
			if t, ok := b.labelBreak[st.Label.Name]; ok {
				b.edge(cur, t, false)
				return nil
			}
		} else if n := len(b.breakTargets); n > 0 {
			b.edge(cur, b.breakTargets[n-1], false)
			return nil
		}
	case "continue":
		if st.Label != nil {
			if t, ok := b.labelContinue[st.Label.Name]; ok {
				b.continueEdge(cur, t)
				return nil
			}
		} else if n := len(b.continueTargets); n > 0 {
			b.continueEdge(cur, b.continueTargets[n-1])
			return nil
		}
	case "goto":
		// No structured target; be conservative and route to exit so the
		// block does not silently fall through.
		b.edge(cur, b.g.Exit, false)
		return nil
	case "fallthrough":
		// Handled by switchClauses; as a lone statement it ends the block.
		return cur
	}
	return cur
}

// ReversePostOrder returns the blocks in reverse post-order over forward
// (non-back) edges — the natural visit order for a single-pass forward
// analysis on the loop-free skeleton.
func (g *CFG) ReversePostOrder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var order []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, e := range b.Succs {
			if !e.Back {
				visit(e.To)
			}
		}
		order = append(order, b)
	}
	visit(g.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// walkNode visits the expression tree of one block node in evaluation
// order (pre-order), without descending into nested function literals.
// The literal itself is still reported so analyses can handle it.
func walkNode(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		visit(m)
		_, isLit := m.(*ast.FuncLit)
		return !isLit
	})
}
