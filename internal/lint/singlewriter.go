package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SingleWriterConfig names one struct field that only the listed functions
// may write: the field's value is then whatever those functions' rules make
// it, and a reviewer reads them instead of every handler. Building the
// struct (a composite literal) is construction, not a write.
type SingleWriterConfig struct {
	// Pkg declares Type; Writers are functions or methods of Pkg.
	Pkg     string
	Type    string
	Field   string
	Writers []string
	// Why is appended to the diagnostic: what a stray write breaks.
	Why string
}

// runSingleWriter flags every assignment to, increment of, or address taken
// of a configured field outside that field's writers.
func runSingleWriter(prog *Program, pkg *Package, cfg Config) []Diagnostic {
	var out []Diagnostic
	for _, sw := range cfg.SingleWriter {
		field := lookupField(prog, sw)
		if field == nil {
			continue
		}
		allowed := make(map[string]bool, len(sw.Writers))
		for _, w := range sw.Writers {
			allowed[w] = true
		}
		inPkg := inPkgs(pkg.Path, []string{sw.Pkg})
		check := func(expr ast.Expr) {
			sel, ok := expr.(*ast.SelectorExpr)
			if !ok || pkg.Info.Uses[sel.Sel] != field {
				return
			}
			out = append(out, Diagnostic{
				Pos:  prog.Fset.Position(sel.Pos()),
				Pass: "single-writer",
				Message: "write to " + sw.Type + "." + sw.Field + " outside " +
					strings.Join(sw.Writers, ", ") + ": " + sw.Why,
			})
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || (inPkg && allowed[fn.Name.Name]) {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch st := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range st.Lhs {
							check(lhs)
						}
					case *ast.IncDecStmt:
						check(st.X)
					case *ast.UnaryExpr:
						if st.Op == token.AND {
							check(st.X) // a mutable alias is a write
						}
					}
					return true
				})
			}
		}
	}
	return out
}

// lookupField resolves the configured field's object.
func lookupField(prog *Program, sw SingleWriterConfig) *types.Var {
	for _, named := range lookupNamedTypes(prog, sw.Pkg, []string{sw.Type}) {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Name() == sw.Field {
				return f
			}
		}
	}
	return nil
}
