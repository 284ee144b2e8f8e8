package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the pass that produced it, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
}

// String renders the diagnostic in the conventional file:line:col format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
}

// Config selects what each pass targets. The zero value is unusable; use
// DefaultConfig for the adore repo. Fixture tests override the package
// paths to point at their testdata module.
type Config struct {
	// CorePkg is the package defining the cache tree (immutable-cache and
	// exhaustive-switch look here for the node type and its enums).
	CorePkg string
	// CacheTypes names the struct types in CorePkg whose fields are
	// append-only after construction.
	CacheTypes []string
	// CacheConstructors names the functions/methods in CorePkg allowed to
	// write cache fields (constructors and tree-shape mutators).
	CacheConstructors []string
	// ModelPkgs are the deterministic-model packages: no wall clocks, no
	// global randomness, no map-iteration-ordered output.
	ModelPkgs []string
	// GuardedPkgs are the packages where "guarded by" field annotations
	// are enforced.
	GuardedPkgs []string
	// EnumPkgs are the packages whose local enum switches must be
	// exhaustive. Empty means every loaded module package.
	EnumPkgs []string
	// PureCorePkgs are the sans-IO protocol cores: no time/rand/sync
	// imports, no goroutines, no channels — all effects flow through
	// Ready batches. Enforced transitively through the call graph.
	PureCorePkgs []string
	// PurityAllowCalls lists dynamic call sites ("Type.Field") the
	// pure-core tier sanctions — caller-supplied hooks like the jitter
	// source, whose impurity is owned outside the core.
	PurityAllowCalls []string
	// EffectOrder configures the Ready-execution drivers whose
	// Stable-only-after-a-successful-write order and storage-error
	// discipline are proven by the effect-order pass.
	EffectOrder []EffectOrderConfig
	// SingleWriter lists struct fields that only named functions may
	// write (the single-writer pass).
	SingleWriter []SingleWriterConfig
}

// DefaultConfig returns the configuration for the adore module itself.
func DefaultConfig() Config {
	return Config{
		CorePkg:           "adore/internal/core",
		CacheTypes:        []string{"Cache"},
		CacheConstructors: []string{"NewTree", "AddLeaf", "InsertBtw"},
		ModelPkgs: []string{
			"adore/internal/core",
			"adore/internal/explore",
			"adore/internal/config",
			"adore/internal/refine",
			"adore/internal/types",
			"adore/internal/invariant",
			"adore/internal/ado",
			"adore/internal/cado",
			"adore/internal/raftnet",
			"adore/internal/sraft",
			"adore/internal/raft/raftcore",
		},
		GuardedPkgs: []string{
			"adore/internal/raft",
			"adore/internal/kvstore",
			"adore/internal/raft/transport",
			"adore/internal/raft/cluster",
			"adore/internal/chaos",
		},
		PureCorePkgs:     []string{"adore/internal/raft/raftcore"},
		PurityAllowCalls: []string{"Config.Jitter"},
		// raft.Driver, the staged Ready executor (the fixture test reuses it).
		EffectOrder: []EffectOrderConfig{{
			Pkg:            "adore/internal/raft",
			StorageIface:   "Storage",
			PersistMethods: []string{"SaveState", "SaveSnapshot", "SaveEntries"},
			FailStops:      []string{"failStop"},
			Requires: []PrecededBy{{
				GateRecv:       "Core",
				GateMethods:    []string{"Stable"},
				WitnessRecv:    "Storage",
				WitnessMethods: []string{"SaveState", "SaveSnapshot", "SaveEntries"},
				// A volatile node (no Storage) reports its batches stable
				// inline: there is no disk to wait for.
				AbsentWitnessExempt: true,
				owner:               "Driver",
				Why: "reporting a batch stable that was not written, or whose write failed, " +
					"releases votes, acks and commits no disk backs",
			}},
		}},
		SingleWriter: []SingleWriterConfig{{
			Pkg:   "adore/internal/raft/raftcore",
			Type:  "Core",
			Field: "commitIndex",
			// A follower learns commits in learnCommit, a leader counts
			// them in advanceCommit, and a full snapshot install replaces
			// the log the index refers to.
			Writers: []string{"learnCommit", "advanceCommit", "onInstallSnapshot"},
			Why: "a commit index taken from a message without the leaderMatch clamp " +
				"commits entries this log never matched against the leader",
		}, {
			Pkg:   "adore/internal/raft/raftcore",
			Type:  "Core",
			Field: "lastApplied",
			// TakeEffects hands entries out one by one up to applyLimit; a
			// full snapshot install stands in for everything the image covers.
			Writers: []string{"TakeEffects", "onInstallSnapshot"},
			Why:     "a stray write applies an entry the quorum did not commit or skips one",
		}},
	}
}

// A pass inspects one package and appends diagnostics.
type pass struct {
	name string
	run  func(*Program, *Package, Config) []Diagnostic
}

func allPasses() []pass {
	return []pass{
		{"immutable-cache", runImmutable},
		{"deterministic-model", runDeterminism},
		{"lockset", runLockset},
		{"exhaustive-switch", runExhaustive},
		{"transitive-purity", runPurity},
		{"effect-order", runEffectOrder},
		{"single-writer", runSingleWriter},
	}
}

// PassNames lists the registered pass names in registry order.
func PassNames() []string {
	ps := allPasses()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.name
	}
	return names
}

// RunAll executes every pass over every package in prog and returns the
// diagnostics sorted by position.
func RunAll(prog *Program, cfg Config) []Diagnostic {
	ds, _ := RunPasses(prog, cfg, nil)
	return ds
}

// RunPasses executes the named passes (nil or empty = all) over every
// package in prog and returns the diagnostics sorted by position. Unknown
// names are an error so a typo cannot silently disable a check.
func RunPasses(prog *Program, cfg Config, names []string) ([]Diagnostic, error) {
	selected := allPasses()
	if len(names) > 0 {
		byName := make(map[string]pass)
		for _, p := range selected {
			byName[p.name] = p
		}
		selected = selected[:0]
		for _, n := range names {
			p, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("lint: unknown pass %q (have %s)", n, strings.Join(PassNames(), ", "))
			}
			selected = append(selected, p)
		}
	}
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, p := range selected {
			out = append(out, p.run(prog, pkg, cfg)...)
		}
	}
	sortDiagnostics(out)
	return out, nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// inPkgs reports whether path (optionally with the ".test" suffix of an
// external test unit) matches one of the listed import paths.
func inPkgs(path string, pkgs []string) bool {
	base := strings.TrimSuffix(path, ".test")
	for _, p := range pkgs {
		if base == p {
			return true
		}
	}
	return false
}
