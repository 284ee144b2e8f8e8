// Command adore-lint runs the repo-specific static checks over the adore
// module: immutable-cache, deterministic-model, lockset, exhaustive-switch,
// transitive-purity, effect-order, and single-writer. It exits nonzero when
// any diagnostic is produced, so it slots directly into CI next to go vet.
//
// Usage:
//
//	go run ./cmd/adore-lint [-json] [-pass name[,name...]] [./...]
//
// Flags:
//
//	-json   emit diagnostics as a JSON array (one object per finding)
//	-pass   run only the named passes (comma-separated); default all
//
// The package pattern argument is accepted for familiarity; the tool
// always analyzes the whole module containing the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"adore/internal/lint"
)

// jsonDiagnostic is the stable wire shape of one finding.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it returns the process exit code
// instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adore-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit diagnostics as JSON")
	passes := fs.String("pass", "", "comma-separated pass names to run (default: all: "+
		strings.Join(lint.PassNames(), ", ")+")")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: adore-lint [-json] [-pass name[,name...]] [./...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	dir := "."
	for _, arg := range fs.Args() {
		switch arg {
		case "./...", "...":
			// whole-module run, the default
		default:
			dir = arg
		}
	}

	var names []string
	if *passes != "" {
		for _, n := range strings.Split(*passes, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}

	root, modPath, err := lint.FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, "adore-lint:", err)
		return 2
	}
	prog, err := lint.Load(root, modPath)
	if err != nil {
		fmt.Fprintln(stderr, "adore-lint:", err)
		return 2
	}
	diags, err := lint.RunPasses(prog, lint.DefaultConfig(), names)
	if err != nil {
		fmt.Fprintln(stderr, "adore-lint:", err)
		return 2
	}

	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Column:  d.Pos.Column,
				Pass:    d.Pass,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "adore-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "adore-lint: %d issue(s)\n", len(diags))
		return 1
	}
	return 0
}
