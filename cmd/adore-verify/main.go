// Command adore-verify regenerates the paper's effort-comparison tables
// (§7) in this repository's executable-checking world:
//
//	adore-verify           # E2: CADO vs Adore model-checking effort
//	adore-verify -schemes  # E4: per-scheme assumption checks
//	adore-verify -refine   # E3: refinement checking effort
//	adore-verify -all
//
// The paper reports lines of Coq and person-weeks; the executable analog
// reports states explored, invariants checked, cases discharged, and wall
// time, with the same headline comparison: reconfiguration multiplies the
// verification work, and the protocol-level abstraction keeps it feasible.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"adore/internal/config"
	"adore/internal/core"
	"adore/internal/explore"
	"adore/internal/refine"
	"adore/internal/types"
)

func main() {
	var (
		model   = flag.Bool("model", false, "run the E2 model-checking comparison")
		schemes = flag.Bool("schemes", false, "run the E4 scheme assumption checks")
		ref     = flag.Bool("refine", false, "run the E3 refinement checking report")
		all     = flag.Bool("all", false, "run everything")
		depth   = flag.Int("depth", 4, "BFS depth bound for the model comparison")
	)
	flag.Parse()
	if !*model && !*schemes && !*ref {
		*all = true
	}
	if *all || *model {
		modelReport(*depth)
	}
	if *all || *schemes {
		schemeReport()
	}
	if *all || *ref {
		refineReport()
	}
}

// modelReport is E2: the CADO vs Adore comparison mirroring the paper's
// "1.3k lines / 2 weeks vs 4.5k lines / +3 weeks".
func modelReport(depth int) {
	fmt.Println("E2 — model-checking effort: CADO (static config) vs Adore (hot reconfiguration)")
	fmt.Println("paper: CADO safety 1.3k LoC Coq / 2 person-weeks; Adore 4.5k LoC / +3 weeks")
	fmt.Println()
	t := &table{header: []string{"model", "nodes", "depth", "states", "reconfig states", "transitions", "wall time", "violations"}}
	for _, row := range []struct {
		name  string
		rules core.Rules
		spare bool
	}{
		{"CADO", core.StaticRules(), false},
		{"Adore", core.DefaultRules(), false},
		// With a spare node the configuration can both shrink and grow,
		// which is where reconfiguration genuinely multiplies the space.
		{"Adore+spare", core.DefaultRules(), true},
	} {
		st := core.NewState(config.RaftSingleNode, types.Range(1, 3), row.rules)
		nodes := "3"
		if row.spare {
			st.Times[4] = 0 // S4 exists but is outside conf₀
			nodes = "3+1"
		}
		start := time.Now()
		reconfStates := 0
		res := explore.BFS(st, explore.Options{
			MaxDepth:  depth,
			MaxStates: 2_000_000,
			OnState: func(s *core.State) {
				if len(s.Tree.RCaches()) > 0 {
					reconfStates++
				}
			},
		})
		viol := "none"
		if res.Violation != nil {
			viol = res.Violation.Error()
		}
		t.add(row.name, nodes, fmt.Sprint(depth), fmt.Sprint(res.States), fmt.Sprint(reconfStates),
			fmt.Sprint(res.Transitions), time.Since(start).Round(time.Millisecond).String(), viol)
	}
	t.print(os.Stdout)
	fmt.Println()
}

// schemeReport is E4: the six scheme instantiations and their assumption
// checks, mirroring the paper's "about 200 lines in total".
func schemeReport() {
	fmt.Println("E4 — reconfiguration scheme instantiations (paper: six examples, ~200 LoC + 100 shared)")
	fmt.Println()
	t := &table{header: []string{"scheme", "configs", "quorum-pair cases", "wall time", "REFLEXIVE+OVERLAP"}}
	universe := types.Range(1, 5)
	start3 := types.Range(1, 3)
	for _, s := range config.AllSchemes() {
		depth := 3
		if s.Name() == "dynamic-quorum" || s.Name() == "unanimous" || s.Name() == "primary-backup" {
			depth = 2
		}
		start := time.Now()
		configs := config.ReachableConfigs(s, start3, universe, depth)
		cases, err := config.CheckAssumptions(s, start3, universe, depth)
		status := "OK"
		if err != nil {
			status = "VIOLATED: " + err.Error()
		}
		t.add(s.Name(), fmt.Sprint(len(configs)), fmt.Sprint(cases),
			time.Since(start).Round(time.Millisecond).String(), status)
	}
	t.print(os.Stdout)
	fmt.Println()
}

// refineReport is E3: refinement checking effort, mirroring the paper's
// "13.8k lines, of which 2.5k SRaft↔Adore".
func refineReport() {
	fmt.Println("E3 — refinement checking (paper: 13.8k LoC total, 2.5k SRaft↔Adore)")
	fmt.Println()
	t := &table{header: []string{"scheme", "traces", "atomic steps", "logMatch checks", "wall time", "result"}}
	for _, s := range config.AllSchemes() {
		start := time.Now()
		steps, checks := 0, 0
		status := "OK"
		for seed := int64(0); seed < 20; seed++ {
			c := refine.New(s, types.Range(1, 4), core.DefaultRules())
			if err := drive(c, seed, 40); err != nil {
				status = "FAILED: " + err.Error()
				break
			}
			steps += c.Steps
			checks += c.Checks
		}
		t.add(s.Name(), "20", fmt.Sprint(steps), fmt.Sprint(checks),
			time.Since(start).Round(time.Millisecond).String(), status)
	}
	t.print(os.Stdout)
	fmt.Println()
}

// drive issues a random SRaft schedule through the refinement checker
// (mirrors the lockstep driver in the refine tests).
func drive(c *refine.Checker, seed int64, steps int) error {
	r := rand.New(rand.NewSource(seed))
	method := types.MethodID(1)
	for i := 0; i < steps; i++ {
		nodes := c.Net.St.Nodes
		ids := make([]types.NodeID, 0, len(nodes))
		for id := range nodes {
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			return nil
		}
		slices.Sort(ids) // deterministic order before the random pick
		nid := ids[r.Intn(len(ids))]
		s := nodes[nid]
		switch r.Intn(4) {
		case 0:
			if len(s.Log) == 0 && !c.Net.St.Conf0.Members().Contains(nid) {
				continue
			}
			voters := types.NewNodeSet(nid)
			for _, id := range s.CurrentConfig().Members().Slice() {
				if r.Intn(2) == 0 {
					voters = voters.Add(id)
				}
			}
			if _, err := c.Elect(nid, voters); err != nil {
				continue
			}
		case 1:
			if s.IsLeader {
				if err := c.Invoke(nid, method); err != nil {
					return err
				}
				method++
			}
		case 2:
			if s.IsLeader {
				succs := c.Net.St.Scheme.Successors(s.CurrentConfig(), types.Range(1, 5))
				if len(succs) > 0 {
					if err := c.Reconfig(nid, succs[r.Intn(len(succs))]); err != nil {
						return err
					}
				}
			}
		case 3:
			if !s.IsLeader {
				continue
			}
			anchor := c.Model.Tree.Get(c.Anchor(nid))
			last := c.Model.Tree.LastCommit(nid)
			fresh := anchor != nil && anchor.IsCommand() && anchor.Caller == nid &&
				anchor.Time == s.Time && (last == nil || anchor.Greater(last))
			ackers := types.NewNodeSet(nid)
			for _, id := range s.CurrentConfig().Members().Slice() {
				if other, ok := nodes[id]; !ok ||
					(fresh && other.Time <= s.Time) || (!fresh && other.Time == s.Time) {
					ackers = ackers.Add(id)
				}
			}
			if !s.CurrentConfig().IsQuorum(ackers) {
				continue
			}
			if err := c.Commit(nid, ackers); err != nil {
				return err
			}
		}
	}
	return nil
}
