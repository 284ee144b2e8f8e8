package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// effectorder.go proves the driver half of the staged Ready contract on the
// one driver type (raft.Driver, which raft.Node and the simulator both run).
// The core holds back everything that depends on a write
// (votes, append acks, the leader's broadcast, commit deliveries) until the
// driver calls Core.Stable — the golden Ready tests pin that — so the
// driver's whole obligation is when it may say Stable: on every forward
// control-flow path a call to Core.Stable must be preceded by the batch's
// Storage.Save* calls, and must be unreachable from their error branches.
// That is acked⇒durable: once a message or an apply leaves the node, a crash
// must not be able to forget the state that justified it.
//
// The check is the PrecededBy must-analysis over the shared CFG: the fact
// "the witness was observed on every path reaching here" is established by a
// witness call (directly or through a same-package helper), intersected at
// merges, and killed on the branch of an `if err != nil` that tests a
// witness's error — so a Stable inside the failure branch, or after a
// failure branch that falls through, is a violation. Back edges are skipped
// (each iteration of a landing loop is a fresh batch). Calls launched with
// `go` run concurrently and are not in-line events; deferred calls take
// effect at function exit. With an owner named, only that type's methods
// may call the gate at all, in any package: proving it proves every runtime.
//
// The same pass enforces the error discipline that makes persistence
// meaningful: every Storage persist call's error must be returned,
// panicked on, or routed to the fail-stop halt (Config FailStops, e.g.
// Driver.failStop). A dropped or merely-logged storage error would let the
// node keep acking on top of unpersisted state.
//
// PrecededBy is generic: the lease read path uses it for "extending the
// lease clock is preceded by observing the peer's quorum ack".

// EffectOrderConfig targets one package's Ready-execution driver.
type EffectOrderConfig struct {
	// Pkg is the driver package's import path.
	Pkg string
	// StorageIface / PersistMethods name the persistence interface and its
	// persisting methods ("Storage", SaveState/SaveSnapshot/SaveEntries);
	// their errors are held to the fail-stop discipline.
	StorageIface   string
	PersistMethods []string
	// FailStops names the functions that halt the node on a storage error;
	// a persist error must reach one of them (or a panic, or a return).
	FailStops []string
	// Requires lists the observation-order obligations (see PrecededBy).
	Requires []PrecededBy
}

// PrecededBy is one observation-order obligation: every call to a gated
// method must be preceded, on every forward control-flow path through the
// calling function, by a call to one of the witness methods — and, when the
// witness returns an error, must not be reachable from the branch that saw
// that error non-nil. A MUST-analysis: the witness holds only where every
// path established it. Two instances: Core.Stable preceded by Storage.Save*
// (reporting an unwritten or failed batch stable releases votes, acks and
// commits no disk backs), and LeaseClock.Extend preceded by
// AckWindow.Observe (an extension reached on a path that skipped the
// observation fabricates the very freshness a lease must prove).
// Witnesses propagate through same-package static calls (a helper that
// observes discharges its caller), but the obligation itself is
// per-function: a helper that calls the gate assuming its caller observed is
// a violation at its own gate site.
type PrecededBy struct {
	// GateRecv / GateMethods name the gated event by receiver type — an
	// interface ("LeaseClock".Extend) or a concrete type ("Core".Stable).
	GateRecv    string
	GateMethods []string
	// WitnessRecv / WitnessMethods name the observation that must come
	// first ("AckWindow".Observe, "Storage".Save*).
	WitnessRecv    string
	WitnessMethods []string
	// AbsentWitnessExempt frees the branch taken because a value of the
	// witness type compared equal to nil: with no Storage there is nothing
	// to write, so a volatile node owes Stable no Save.
	AbsentWitnessExempt bool
	// owner, when set, names the one type in Pkg whose methods may call the
	// gate: a call anywhere else, in any package, is a second executor (the
	// gate type's own methods are exempt: the core composing its contract).
	owner string
	// Why is appended to the diagnostic: the one-line safety argument.
	Why string
}

// runEffectOrder is the effect-order pass entry point.
func runEffectOrder(prog *Program, pkg *Package, cfg Config) []Diagnostic {
	var out []Diagnostic
	if strings.HasSuffix(pkg.Path, ".test") {
		return nil // the contract binds the shipped driver, not its tests
	}
	report := func(pos token.Pos, msg string) {
		out = append(out, Diagnostic{Pos: prog.Fset.Position(pos), Pass: "effect-order", Message: msg})
	}
	for _, eoc := range cfg.EffectOrder {
		home := pkg.Path == eoc.Pkg
		a := &effectAnalysis{prog: prog, pkg: pkg, eoc: eoc}
		if home {
			a.computeCallees()
		}
		for _, file := range pkg.Files {
			if strings.HasSuffix(prog.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				for i := range eoc.Requires {
					a.checkOwner(fd, &eoc.Requires[i], home, report)
				}
				if !home {
					continue
				}
				a.checkErrDiscipline(fd.Body, report)
				for i := range eoc.Requires {
					a.checkPreceded(fd, &eoc.Requires[i], report)
				}
			}
		}
	}
	return out
}

// checkOwner flags every gate call in fd unless fd is a method of the
// obligation's owner in the configured package, or of the gate type itself.
func (a *effectAnalysis) checkOwner(fd *ast.FuncDecl, req *PrecededBy, home bool, report func(token.Pos, string)) {
	recv := ""
	if fd.Recv != nil {
		recv = typeShortName(a.pkg.Info.Types[fd.Recv.List[0].Type].Type)
	}
	if req.owner == "" || recv == req.GateRecv || (home && recv == req.owner) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name := a.recvCall(call, req.GateRecv, req.GateMethods); name != "" {
				report(call.Pos(), name+" outside "+req.owner+": a second executor; "+req.Why)
			}
		}
		return true
	})
}

type effectAnalysis struct {
	prog *Program
	pkg  *Package
	eoc  EffectOrderConfig
	// callees lists, per declared function, its same-package static callees
	// (not via go, not inside function literals).
	callees map[*types.Func][]*types.Func
	witSums map[*PrecededBy]map[*types.Func]bool
}

// recvCall reports whether call invokes recv.method for one of the listed
// methods — dynamically through an interface named recv, or statically on a
// concrete type named recv — returning its display name ("Storage.SaveState",
// "Core.Stable").
func (a *effectAnalysis) recvCall(call *ast.CallExpr, recv string, methods []string) string {
	cs := resolveCall(a.pkg, call, false)
	name := cs.DynamicName
	if !cs.Dynamic {
		if cs.Callee == nil {
			return ""
		}
		sig, ok := cs.Callee.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return ""
		}
		name = typeShortName(sig.Recv().Type()) + "." + cs.Callee.Name()
	}
	for _, m := range methods {
		if name == recv+"."+m {
			return name
		}
	}
	return ""
}

func (a *effectAnalysis) persistCall(call *ast.CallExpr) string {
	return a.recvCall(call, a.eoc.StorageIface, a.eoc.PersistMethods)
}

// samePkgCallee returns the statically resolved same-package callee of
// call, or nil.
func (a *effectAnalysis) samePkgCallee(call *ast.CallExpr) *types.Func {
	cs := resolveCall(a.pkg, call, false)
	if cs.Callee == nil || cs.Dynamic || cs.Callee.Pkg() != a.pkg.Types {
		return nil
	}
	return cs.Callee
}

// computeCallees records the package's static call edges.
func (a *effectAnalysis) computeCallees() {
	a.callees = make(map[*types.Func][]*types.Func)
	for fn, node := range a.prog.CallGraph().Nodes {
		if node.Pkg != a.pkg {
			continue
		}
		var out []*types.Func
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.FuncLit:
				return false // a defined-but-not-called literal has no effect
			case *ast.GoStmt:
				return false // runs concurrently, not an in-line effect
			case *ast.CallExpr:
				if callee := a.samePkgCallee(e); callee != nil {
					out = append(out, callee)
				}
			}
			return true
		})
		a.callees[fn] = out
	}
}

// checkErrDiscipline verifies every Storage persist call's error is
// handled: returned, panicked on, or routed to a fail-stop halt. scope
// recursion keeps each function literal a separate return/flow scope.
func (a *effectAnalysis) checkErrDiscipline(scope *ast.BlockStmt, report func(token.Pos, string)) {
	ast.Inspect(scope, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			a.checkErrDiscipline(e.Body, report)
			return false
		case *ast.CallExpr:
			if name := a.persistCall(e); name != "" {
				a.checkOneErr(scope, e, name, report)
			}
		}
		return true
	})
}

// checkOneErr applies the error discipline to one persist call.
func (a *effectAnalysis) checkOneErr(scope *ast.BlockStmt, call *ast.CallExpr, name string, report func(token.Pos, string)) {
	path := pathTo(scope, call)
	var stmt ast.Stmt
	for i := len(path) - 1; i >= 0; i-- {
		if s, ok := path[i].(ast.Stmt); ok {
			stmt = s
			break
		}
	}
	dropped := func() {
		report(call.Pos(), "error from "+name+" is dropped; a failed persist must fail-stop the node, "+
			"not leave it acking on unpersisted state")
	}
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		return // propagated to the caller
	case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt:
		dropped()
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 || ast.Unparen(s.Rhs[0]) != call {
			return // call feeds a larger expression; assume the consumer handles it
		}
		errIdent, ok := s.Lhs[len(s.Lhs)-1].(*ast.Ident)
		if !ok {
			return
		}
		if errIdent.Name == "_" {
			dropped()
			return
		}
		obj := a.pkg.Info.Defs[errIdent]
		if obj == nil {
			obj = a.pkg.Info.Uses[errIdent]
		}
		if obj == nil {
			return
		}
		if !a.errReachesHalt(scope, obj, errIdent) {
			report(call.Pos(), "error from "+name+" never reaches the fail-stop halt; route it to "+
				strings.Join(a.eoc.FailStops, "/")+", panic, or return it")
		}
	case *ast.IfStmt:
		// The call sits in the condition (err != nil inline); the branches
		// must halt.
		if !a.blockHalts(s) {
			report(call.Pos(), "error from "+name+" is checked but the failure branch does not halt; "+
				"route it to "+strings.Join(a.eoc.FailStops, "/")+", panic, or return it")
		}
	}
}

// errReachesHalt reports whether some use of the error object is terminal:
// returned, passed to panic or a fail-stop-reaching call, or tested by an
// if whose branches halt.
func (a *effectAnalysis) errReachesHalt(scope *ast.BlockStmt, obj types.Object, def *ast.Ident) bool {
	used := false
	halts := false
	ast.Inspect(scope, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id == def || a.pkg.Info.Uses[id] != obj {
			return true
		}
		used = true
		path := pathTo(scope, id)
		for i := len(path) - 1; i >= 0; i-- {
			switch anc := path[i].(type) {
			case *ast.ReturnStmt:
				halts = true
				return true
			case *ast.CallExpr:
				if a.callHalts(anc) {
					halts = true
					return true
				}
			case *ast.IfStmt:
				// Only a use inside the condition makes the if a check of
				// this error.
				if anc.Cond.Pos() <= id.Pos() && id.Pos() <= anc.Cond.End() && a.blockHalts(anc) {
					halts = true
					return true
				}
			case *ast.FuncLit:
				return true // different scope; its own pass judges it
			}
		}
		return true
	})
	return used && halts
}

// callHalts reports whether call is panic or reaches a fail-stop.
func (a *effectAnalysis) callHalts(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := a.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	cs := resolveCall(a.pkg, call, false)
	if cs.Callee == nil || cs.Dynamic {
		return false
	}
	return a.reachesFailStop(cs.Callee)
}

// blockHalts reports whether an if statement's branches contain a return,
// a panic, or a fail-stop-reaching call.
func (a *effectAnalysis) blockHalts(s *ast.IfStmt) bool {
	found := false
	check := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if found {
				return false
			}
			switch e := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				found = true
				return false
			case *ast.CallExpr:
				if a.callHalts(e) {
					found = true
					return false
				}
			}
			return true
		})
	}
	check(s.Body)
	if s.Else != nil {
		check(s.Else)
	}
	return found
}

// reachesFailStop reports whether fn is, or transitively calls, a
// configured fail-stop function.
func (a *effectAnalysis) reachesFailStop(fn *types.Func) bool {
	isStop := func(g *types.Func) bool {
		for _, name := range a.eoc.FailStops {
			if g.Name() == name {
				return true
			}
		}
		return false
	}
	if isStop(fn) {
		return true
	}
	ok, _ := a.prog.CallGraph().Reaches(fn, isStop)
	return ok
}

// witnessSummaries computes, for one obligation, which same-package
// functions contain a witness call (directly or through callees) — the
// may-approximation that lets a helper discharge its caller.
func (a *effectAnalysis) witnessSummaries(req *PrecededBy) map[*types.Func]bool {
	if a.witSums == nil {
		a.witSums = make(map[*PrecededBy]map[*types.Func]bool)
	}
	if wit, ok := a.witSums[req]; ok {
		return wit
	}
	wit := make(map[*types.Func]bool)
	for fn, node := range a.prog.CallGraph().Nodes {
		if node.Pkg != a.pkg {
			continue
		}
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.CallExpr:
				if a.recvCall(e, req.WitnessRecv, req.WitnessMethods) != "" {
					wit[fn] = true
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range a.callees {
			if wit[fn] {
				continue
			}
			for _, callee := range callees {
				if wit[callee] {
					wit[fn] = true
					changed = true
					break
				}
			}
		}
	}
	a.witSums[req] = wit
	return wit
}

// isWitness reports whether call is a witness event: the witness method
// itself, or a same-package helper that reaches one.
func (a *effectAnalysis) isWitness(call *ast.CallExpr, req *PrecededBy, wit map[*types.Func]bool) bool {
	if a.recvCall(call, req.WitnessRecv, req.WitnessMethods) != "" {
		return true
	}
	callee := a.samePkgCallee(call)
	return callee != nil && wit[callee]
}

// witnessErrors collects the error variables of body that hold a witness
// call's result (`err := st.SaveState(hs)`, `err = d.persist(u)`): an if
// that sees one of them non-nil is that witness's failure branch.
func (a *effectAnalysis) witnessErrors(body *ast.BlockStmt, req *PrecededBy, wit map[*types.Func]bool) map[types.Object]bool {
	errs := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(e.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(e.Rhs[0]).(*ast.CallExpr)
			if !ok || !a.isWitness(call, req, wit) {
				return true
			}
			id, ok := e.Lhs[len(e.Lhs)-1].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true
			}
			obj := a.pkg.Info.Defs[id]
			if obj == nil {
				obj = a.pkg.Info.Uses[id]
			}
			if obj != nil && types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
				errs[obj] = true
			}
		}
		return true
	})
	return errs
}

// failureBranch reports whether a block guarded by g runs only when one of
// errs was non-nil: the then-branch of `err != nil`, the else-branch of
// `err == nil`.
func (a *effectAnalysis) failureBranch(g *BlockGuard, errs map[types.Object]bool) bool {
	bin, ok := ast.Unparen(g.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return false
	}
	isErr := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && errs[a.pkg.Info.Uses[id]]
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if !(isErr(bin.X) && isNil(bin.Y)) && !(isNil(bin.X) && isErr(bin.Y)) {
		return false
	}
	return (bin.Op == token.NEQ) == g.Taken
}

// absentBranch reports whether a block guarded by g runs only when a value
// of the witness type was nil: the then-branch of `x.Storage == nil`, the
// else-branch of `x.Storage != nil`.
func (a *effectAnalysis) absentBranch(g *BlockGuard, req *PrecededBy) bool {
	bin, ok := ast.Unparen(g.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return false
	}
	isWitness := func(e ast.Expr) bool {
		tv, ok := a.pkg.Info.Types[e]
		return ok && tv.Type != nil && !tv.IsNil() && typeShortName(tv.Type) == req.WitnessRecv
	}
	isNil := func(e ast.Expr) bool {
		tv, ok := a.pkg.Info.Types[e]
		return ok && tv.IsNil()
	}
	if !(isWitness(bin.X) && isNil(bin.Y)) && !(isNil(bin.X) && isWitness(bin.Y)) {
		return false
	}
	return (bin.Op == token.EQL) == g.Taken
}

// checkPreceded runs one obligation's must-analysis over one function:
// the dataflow fact is "the witness was observed, and did not fail, on EVERY
// path reaching here" (merges intersect; back edges are cut — each loop
// iteration is a fresh batch), and a gated call reached with the fact
// unestablished is a violation.
func (a *effectAnalysis) checkPreceded(fd *ast.FuncDecl, req *PrecededBy, report func(token.Pos, string)) {
	wit := a.witnessSummaries(req)
	errs := a.witnessErrors(fd.Body, req, wit)
	g := BuildCFG(fd.Body)
	in := make([]bool, len(g.Blocks))
	reached := make([]bool, len(g.Blocks))
	reached[g.Entry.Index] = true
	for _, blk := range g.ReversePostOrder() {
		if !reached[blk.Index] {
			continue
		}
		st := in[blk.Index]
		if blk.Guard != nil && a.failureBranch(blk.Guard, errs) {
			st = false // the witness failed on this path
		}
		if blk.Guard != nil && req.AbsentWitnessExempt && a.absentBranch(blk.Guard, req) {
			st = true // nothing to write to on this path
		}
		for _, node := range blk.Nodes {
			var skip *ast.CallExpr
			switch d := node.(type) {
			case *ast.DeferStmt:
				skip = d.Call // runs at exit, not at its syntactic position
			case *ast.GoStmt:
				skip = d.Call // runs concurrently
			}
			walkNode(node, func(m ast.Node) {
				e, ok := m.(*ast.CallExpr)
				if !ok || e == skip {
					return
				}
				if name := a.recvCall(e, req.GateRecv, req.GateMethods); name != "" {
					if !st {
						report(e.Pos(), name+" without a preceding successful "+req.WitnessRecv+" call on this path; "+req.Why)
					}
					return
				}
				if a.isWitness(e, req, wit) {
					st = true
				}
			})
		}
		for _, e := range blk.Succs {
			if e.Back {
				continue
			}
			if !reached[e.To.Index] {
				in[e.To.Index] = st
				reached[e.To.Index] = true
			} else {
				in[e.To.Index] = in[e.To.Index] && st
			}
		}
	}
}

// pathTo returns the node path from root down to target (inclusive), or
// nil if target is not under root.
func pathTo(root, target ast.Node) []ast.Node {
	var stack []ast.Node
	var found []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if found != nil {
			return false
		}
		stack = append(stack, n)
		if n == target {
			found = append([]ast.Node(nil), stack...)
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
	return found
}
