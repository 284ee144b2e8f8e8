package chaos

import (
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"adore/internal/raft"
)

// row returns the teeth table's row called name.
func row(t *testing.T, name string) tooth {
	t.Helper()
	for _, r := range teeth {
		if r.name == name {
			return r
		}
	}
	t.Fatalf("no row %q in the teeth table", name)
	return tooth{}
}

// runSim replays a schedule in the simulator, failing the test on a harness
// error.
func runSim(t *testing.T, sched *Schedule, opt Options) *Report {
	t.Helper()
	rep, err := RunSim(sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// outcomes are the checks of what a row's runs showed beyond its verdict,
// keyed by row name; each runs on every seed. on is the guard-on run; off is
// the knocked-out run, nil for a row without a knock-out. What a row's
// schedule sets up is not checked here: its events wait for it as premises,
// and the executor reports any it never reached.
var outcomes = map[string]func(t *testing.T, on, off *Report){
	// Pre-Vote keeps the isolated node's futile rounds term-neutral: the
	// cluster's term does not rise from the isolation on. Without it the
	// rejoining node's inflated term deposes the leader. The first election,
	// whose split votes the draws decide, comes before the isolation and is
	// not counted.
	"disruption": func(t *testing.T, on, off *Report) {
		rOn, rOff := termRise(on.Journal, "isolate S"), termRise(off.Journal, "isolate S")
		if j := on.Journal; rOn != 0 || rOff == 0 {
			if rOn == 0 {
				j = off.Journal
			}
			t.Fatalf("the term rose by %d (Pre-Vote on) and %d (off) from the isolation on, want 0 and more\n--- journal ---\n%s", rOn, rOff, j)
		}
	},
	"stale-leader": func(t *testing.T, on, _ *Report) {
		if on.Stats.StepDowns == 0 {
			t.Fatalf("guards on: the partitioned leader never recorded a CheckQuorum step-down\n--- journal ---\n%s", on.Journal)
		}
	},
	"stalled-leader-disk": func(t *testing.T, on, _ *Report) {
		if on.Stats.DiskStepDowns == 0 {
			t.Fatalf("the stalled leader never stepped down for its disk\n--- journal ---\n%s", on.Journal)
		}
	},
	// The quorum-durable oracle, which reads the disks rather than the cores,
	// sees the mutant's lie while every node is still up.
	"crash-before-stable": func(t *testing.T, _, off *Report) {
		j := string(off.Journal)
		caught, crash := strings.Index(j, "quorum-durable violation"), strings.Index(j, "crash (clean)")
		if caught < 0 || crash < 0 || caught > crash {
			t.Fatalf("the quorum-durable oracle did not fire before the power cycle (violations: %v)\n--- journal ---\n%s", off.Violations, j)
		}
	},
	// Group 0 runs the same nemesis without the wipe: it is the control arm,
	// so every violation must be group 1's.
	"cross-group-wipe": func(t *testing.T, on, _ *Report) {
		for _, v := range on.Violations {
			if !strings.HasPrefix(v, "g1: ") {
				t.Errorf("violation outside the wiped group 1: %s", v)
			}
		}
	},
	// With R3 S2's removal of S3 is refused, so nothing commits before the
	// partition flips; without it S2's change to {S1,S2,S4} commits and is
	// one side of the fork.
	"r3": func(t *testing.T, on, off *Report) {
		j := string(on.Journal)
		crash, flip := strings.Index(j, "S3 crash (clean)"), strings.Index(j, "partition [S3 S4] | [S1 S2]")
		if crash < 0 || flip < crash {
			t.Fatalf("with R3 on, the journal lacks S3's crash followed by the flip\n--- journal ---\n%s", j)
		}
		if m := regexp.MustCompile(`S[12] commit`).FindString(j[crash:flip]); m != "" {
			t.Fatalf("with R3 on, S2's removal of S3 was not refused: %q before the flip\n--- journal ---\n%s", m, j)
		}
		if !slices.ContainsFunc(off.Violations, regexp.MustCompile(`config\[S1 S2 S4\]@t`).MatchString) {
			t.Fatalf("with R3 off, S2's removal of S3 is not on either side of the fork: %q", off.Violations)
		}
	},
}

var roleTerm = regexp.MustCompile(`@t(\d+)`)

// termRise is how far the highest term in the journal's role lines rose after
// the first line containing mark (0 if there is none).
func termRise(journal []byte, mark string) int {
	j := string(journal)
	at := strings.Index(j, mark)
	if at < 0 {
		return 0
	}
	highest := func(s string) (h int) {
		for _, m := range roleTerm.FindAllStringSubmatch(s, -1) {
			n, _ := strconv.Atoi(m[1])
			h = max(h, n)
		}
		return h
	}
	return max(0, highest(j[at:])-highest(j[:at]))
}

// reached logs the run's premise lines (go test -v shows them) and fails the
// test on a premise the run never saw hold.
func reached(t *testing.T, arm string, rep *Report) {
	t.Helper()
	for _, p := range rep.Premises {
		t.Logf("seed %d, %s: %s", rep.Seed, arm, p)
	}
	if u := rep.Unreached(); len(u) > 0 {
		t.Fatalf("seed %d, %s: %s\n--- journal ---\n%s", rep.Seed, arm, strings.Join(u, "\n"), rep.Journal)
	}
}

// TestTeeth runs every row of the teeth table on each of its teethSeeds
// seeds. A row with a knock-out must be clean with the guard on and show its
// violation with the guard knocked out; a row that breaks the cluster by
// itself (cross-group-wipe) must show its violation in its one run; a
// regression row must stay clean. A premise a run never reaches fails the row
// first, and each row's outcome check, if it has one, runs after.
func TestTeeth(t *testing.T) {
	for _, r := range teeth {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < teethSeeds; i++ {
				on := runSim(t, r.schedule(r.opt, i), r.opt)
				reached(t, "guard on", on)
				var off *Report
				caught := on // a row without a knock-out breaks the cluster by itself
				if r.off != "" || r.want == "" {
					if !on.Ok() {
						t.Fatalf("seed %d, guard on: unexpected violations:\n%s\n--- journal ---\n%s", on.Seed, strings.Join(on.Violations, "\n"), on.Journal)
					}
				}
				if r.off != "" {
					broken := r.knockedOut()
					off = runSim(t, r.schedule(broken, i), broken)
					reached(t, "knocked out", off)
					caught = off
				}
				if r.want == "" {
					continue
				}
				if !slices.ContainsFunc(caught.Violations, regexp.MustCompile(r.want).MatchString) {
					t.Fatalf("seed %d, knock-out %q: no violation matches %q; violations:\n%s\n--- journal ---\n%s",
						caught.Seed, r.off, r.want, strings.Join(caught.Violations, "\n"), caught.Journal)
				}
				if o := outcomes[r.name]; o != nil {
					o(t, on, off)
				}
			}
		})
	}
}

// TestEveryGuardHasATooth: every field of raft.Ablation, and both mutants,
// must be set by the knock-out of at least one row of the teeth table.
func TestEveryGuardHasATooth(t *testing.T) {
	exempt := map[string]string{
		"DisableLeaseRead": "a mode switch whose two arms are both correct protocols; the lease and barrier arms of the lane and read-golden tests cover it",
	}
	covered := map[string]bool{}
	for _, r := range teeth {
		if r.off == "" {
			continue
		}
		o := tooth{off: r.off}.knockedOut()
		ab := reflect.ValueOf(o.Ablation)
		for i := 0; i < ab.NumField(); i++ {
			if !ab.Field(i).IsZero() {
				covered[ab.Type().Field(i).Name] = true
			}
		}
		if o.EarlyStable {
			covered["EarlyStable"] = true
		}
		if o.FreshSeqRetry {
			covered["FreshSeqRetry"] = true
		}
	}
	guards := []string{"EarlyStable", "FreshSeqRetry"}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(raft.Ablation{})) {
		guards = append(guards, f.Name)
	}
	for _, g := range guards {
		if !covered[g] && exempt[g] == "" {
			t.Errorf("%s has no tooth: no row of the teeth table knocks it out", g)
		}
	}
}

// TestTeethR2 runs the teeth table's r2 row on the live runtime, where
// TestTeeth runs it in the simulator: the double-shed schedule must show a
// committed-prefix violation with R2 knocked out and be clean with it on.
func TestTeethR2(t *testing.T) {
	if testing.Short() {
		t.Skip("teeth run in -short mode")
	}
	r := row(t, "r2")
	opt := r.opt
	opt.MemWAL, opt.SettleTimeout = true, 15*time.Second
	broken := opt
	knockOuts[r.off](&broken)
	rep, err := Run(r.sched(broken), broken)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(rep.Violations, regexp.MustCompile(r.want).MatchString) {
		t.Fatalf("R2 knocked out: no violation matches %q — the harness has no teeth; violations:\n%s",
			r.want, strings.Join(rep.Violations, "\n"))
	}
	t.Logf("caught: %s", rep.Violations[0])

	control, err := Run(r.sched(opt), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !control.Ok() {
		t.Fatalf("guards on, same schedule: unexpected violations:\n%s", strings.Join(control.Violations, "\n"))
	}
}
