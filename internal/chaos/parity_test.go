package chaos

import (
	"fmt"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// endState renders what an Env reported after the epilogue: which nodes are
// up, and the configuration of the leader at the highest term.
func endState(final []Sample) string {
	var alive []types.NodeID
	var leader *Sample
	for i := range final {
		s := &final[i]
		if s.Alive {
			alive = append(alive, types.NodeID(i+1))
		}
		if s.Alive && s.Role == raft.Leader && (leader == nil || s.Term > leader.Term) {
			leader = s
		}
	}
	if leader == nil {
		return fmt.Sprintf("alive %v, no leader", alive)
	}
	return fmt.Sprintf("alive %v, members %v", alive, leader.Members)
}

// TestLiveSimVerdictParity runs one schedule through both runtimes — the
// same executor, monitor, loop and epilogue over liveEnv and over the
// simulator — and requires the same verdict from each: the R2 double-shed
// schedule is clean with the guard on and caught with it off, live and
// simulated alike. With the guard on, both Envs must also report the same
// nodes up under the same configuration once the epilogue has run. With it
// off the histories fork, and which fork ends at the highest term is a
// wall-clock race in the live run, so only the verdicts are compared. (A
// first step toward a differential oracle; there is no shared journal to
// compare yet.)
func TestLiveSimVerdictParity(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos runs in -short mode")
	}
	for _, disableR2 := range []bool{false, true} {
		t.Run(fmt.Sprintf("DisableR2=%v", disableR2), func(t *testing.T) {
			// A live cluster whose histories forked (the guard-off arm) need
			// never reconverge: keep its wait for that short.
			opt := Options{Duration: 1200 * time.Millisecond, MemWAL: true, SettleTimeout: 5 * time.Second}
			opt.DisableR2 = disableR2
			sched := R2ViolationSchedule(opt)
			live, err := Run(sched, opt)
			if err != nil {
				t.Fatal(err)
			}
			simulated, err := RunSim(sched, opt)
			if err != nil {
				t.Fatal(err)
			}
			if live.Ok() != simulated.Ok() {
				t.Fatalf("verdicts differ: live %s\nsim %s\nlive violations: %q\nsim violations: %q",
					live, simulated, live.Violations, simulated.Violations)
			}
			if live.Ok() == disableR2 {
				t.Fatalf("both runtimes agree on the wrong verdict (DisableR2=%v): %s", disableR2, live)
			}
			if l, s := endState(live.final), endState(simulated.final); !disableR2 && l != s {
				t.Errorf("after the epilogue liveEnv reports %s, the simulator %s", l, s)
			}
			t.Logf("live: %s\nsim:  %s\nend state: %s", live, simulated, endState(live.final))
		})
	}
}
