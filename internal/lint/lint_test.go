package lint

import (
	"path/filepath"
	"testing"
)

// checkFixture loads a testdata module, runs the passes cfg enables, and
// verifies the diagnostics against the fixture's `// want` annotations —
// both directions: every seeded violation must be caught, and nothing
// unannotated may fire.
func checkFixture(t *testing.T, name string, cfg Config) {
	t.Helper()
	prog, err := Load(filepath.Join("testdata", name), "fix")
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	diags := RunAll(prog, cfg)
	if len(diags) == 0 {
		t.Fatalf("fixture %s produced no diagnostics; the pass is inert", name)
	}
	for _, p := range CheckExpectations(prog, diags) {
		t.Error(p)
	}
}

// off disables the exhaustive pass for fixtures that are not about it
// (an empty EnumPkgs means "every package").
var off = []string{"fix/disabled"}

func TestImmutableCacheFixture(t *testing.T) {
	checkFixture(t, "immutable", Config{
		CorePkg:           "fix/core",
		CacheTypes:        []string{"Cache"},
		CacheConstructors: []string{"NewTree", "AddLeaf"},
		EnumPkgs:          off,
	})
}

func TestDeterministicModelFixture(t *testing.T) {
	checkFixture(t, "determinism", Config{
		ModelPkgs: []string{"fix/model"},
		EnumPkgs:  off,
	})
}

func TestLocksetFixture(t *testing.T) {
	checkFixture(t, "lockset", Config{
		GuardedPkgs: []string{"fix/srv"},
		EnumPkgs:    off,
	})
}

func TestTransitivePurityFixture(t *testing.T) {
	checkFixture(t, "purity", Config{
		PureCorePkgs:     []string{"fix/pure"},
		ModelPkgs:        []string{"fix/model"},
		PurityAllowCalls: []string{"Config.Jitter"},
		EnumPkgs:         off,
	})
}

func TestEffectOrderFixture(t *testing.T) {
	driver := DefaultConfig().EffectOrder[0] // the repo's own declaration
	driver.Pkg = "fix/driver"
	checkFixture(t, "effectorder", Config{
		EffectOrder: []EffectOrderConfig{driver, {
			Pkg: "fix/lease",
			Requires: []PrecededBy{{
				GateRecv:       "LeaseClock",
				GateMethods:    []string{"Extend"},
				WitnessRecv:    "AckWindow",
				WitnessMethods: []string{"Observe"},
				Why: "a lease extension not backed by an observed quorum ack " +
					"fabricates freshness and can serve stale reads",
			}},
		}},
		EnumPkgs: off,
	})
}

func TestSingleWriterFixture(t *testing.T) {
	checkFixture(t, "singlewriter", Config{
		SingleWriter: []SingleWriterConfig{{
			Pkg:     "fix/core",
			Type:    "Core",
			Field:   "commitIndex",
			Writers: []string{"learnCommit", "advanceCommit"},
			Why:     "a commit index taken from a message without the clamp commits entries never matched against the leader",
		}, {
			Pkg:     "fix/core",
			Type:    "Core",
			Field:   "lastApplied",
			Writers: []string{"TakeEffects"},
			Why:     "a stray write applies an entry the quorum did not commit or skips one",
		}},
		EnumPkgs: off,
	})
}

func TestExhaustiveSwitchFixture(t *testing.T) {
	checkFixture(t, "exhaustive", Config{
		EnumPkgs: []string{"fix/enum"},
	})
}

// TestRepoClean runs every pass over the real module and requires zero
// diagnostics — the same bar CI's `go run ./cmd/adore-lint ./...` enforces.
func TestRepoClean(t *testing.T) {
	root, modPath, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root, modPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAll(prog, DefaultConfig()) {
		t.Errorf("%s", d)
	}
}
