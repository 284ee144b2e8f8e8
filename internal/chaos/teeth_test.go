package chaos

import (
	"reflect"
	"regexp"
	"slices"
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

// premises are the checks that a row's schedule still sets up what it
// exists for, keyed by row name. on is the guard-on run; off is the
// knocked-out run, nil for a row without a knock-out.
var premises = map[string]func(t *testing.T, on, off *Report){
	// Pre-Vote keeps the isolated node's futile rounds term-neutral.
	"disruption": func(t *testing.T, on, off *Report) {
		if on.Stats.TermBumps >= off.Stats.TermBumps {
			t.Fatalf("Pre-Vote on should bump terms less than off: %d (on) vs %d (off)", on.Stats.TermBumps, off.Stats.TermBumps)
		}
	},
	"stale-leader": func(t *testing.T, on, _ *Report) {
		if on.Stats.StepDowns == 0 {
			t.Fatalf("guards on: the partitioned leader never recorded a CheckQuorum step-down\n--- journal ---\n%s", on.Journal)
		}
	},
	"stalled-leader-disk": func(t *testing.T, on, _ *Report) {
		if on.Stats.StepDowns == 0 {
			t.Fatalf("the stalled leader never stepped down; the schedule lost its premise\n--- journal ---\n%s", on.Journal)
		}
	},
	// The power cycle loses writes in flight, and the quorum-durable oracle,
	// which reads the disks rather than the cores, sees the mutant's lie
	// while every node is still up.
	"crash-before-stable": func(t *testing.T, on, off *Report) {
		if !strings.Contains(string(on.Journal), "in-flight write lost") {
			t.Fatalf("no write was in flight at the crash; the schedule lost its premise\n--- journal ---\n%s", on.Journal)
		}
		j := string(off.Journal)
		caught, crash := strings.Index(j, "quorum-durable violation"), strings.Index(j, "crash (clean)")
		if caught < 0 || crash < 0 || caught > crash {
			t.Fatalf("the quorum-durable oracle did not fire before the power cycle (violations: %v)\n--- journal ---\n%s", off.Violations, j)
		}
	},
	// S2 must lead at the cut and keep S1, whose disk the plan freezes.
	"pipeline-cut": func(t *testing.T, on, _ *Report) {
		if !strings.Contains(string(on.Journal), "partition [S2 S1] | [S3 S4 S5]") {
			t.Fatalf("the cut did not keep S1 with leader S2; the schedule lost its premise\n--- journal ---\n%s", on.Journal)
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
	// S2 led term 2 with S3 down. With R3 the removal of S3 is refused, so
	// nothing commits before the partition flips; without it S2's change to
	// {S1,S2,S4} commits and is one side of the fork.
	"r3": func(t *testing.T, on, off *Report) {
		j := string(on.Journal)
		lead, crash := strings.Index(j, "S2 leader@t2"), strings.Index(j, "S3 crash (clean)")
		flip := strings.Index(j, "partition [S3 S4] | [S1 S2]")
		if lead < 0 || crash < 0 || flip < crash {
			t.Fatalf("S2 did not lead term 2 with S3 down before the flip; the schedule lost its premise\n--- journal ---\n%s", j)
		}
		if m := regexp.MustCompile(`S[12] commit`).FindString(j[crash:flip]); m != "" {
			t.Fatalf("with R3 on, S2's removal of S3 was not refused: %q before the flip\n--- journal ---\n%s", m, j)
		}
		if !slices.ContainsFunc(off.Violations, func(v string) bool { return strings.Contains(v, "config[S1 S2 S4]@t2") }) {
			t.Fatalf("with R3 off, S2's removal of S3 is not on either side of the fork: %q", off.Violations)
		}
	},
}

// TestTeeth runs every row of the teeth table that has a verdict to give.
// A row with a knock-out must be clean with the guard on and show its
// violation with the guard knocked out; a row that breaks the cluster by
// itself (cross-group-wipe) must show its violation in its one run. Each
// row's premise check, if it has one, runs after.
func TestTeeth(t *testing.T) {
	for _, r := range teeth {
		if r.off == "" && r.want == "" {
			continue // a regression: its own test checks its premise
		}
		t.Run(r.name, func(t *testing.T) {
			on := runSim(t, r.sched(r.opt), r.opt)
			var off *Report
			caught := on // a row without a knock-out breaks the cluster by itself
			if r.off != "" {
				if !on.Ok() {
					t.Fatalf("guard on: unexpected violations:\n%s\n--- journal ---\n%s", strings.Join(on.Violations, "\n"), on.Journal)
				}
				broken := r.knockedOut()
				off = runSim(t, r.sched(broken), broken)
				caught = off
			}
			if !slices.ContainsFunc(caught.Violations, regexp.MustCompile(r.want).MatchString) {
				t.Fatalf("knock-out %q: no violation matches %q; violations:\n%s\n--- journal ---\n%s",
					r.off, r.want, strings.Join(caught.Violations, "\n"), caught.Journal)
			}
			t.Logf("caught: %s", caught.Violations[0])
			if p := premises[r.name]; p != nil {
				p(t, on, off)
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
