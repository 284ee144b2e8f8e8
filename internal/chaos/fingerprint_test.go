package chaos

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestJournalFingerprints hashes four sets of deterministic simulator runs —
// generated seeds at default options and across three groups, every row of
// the teeth table with its guard on, and again with it knocked out — and
// asserts them against testdata/journal_fingerprints.txt, so a change that
// moves the simulator's behaviour cannot land unnoticed (EXPERIMENTS.md E19,
// E20, E24, E28 and E30 trace every move so far). Each run contributes its journal, its op /
// timeout / fault counts, its violations and its warnings; Report.Stats stays
// out (how counters are summed is harness policy, not simulator behaviour).
// With -v it also logs each row's journal hash, to tell which one moved.
func TestJournalFingerprints(t *testing.T) {
	var got []string
	set := func(name string, h hash.Hash) { got = append(got, fmt.Sprintf("%-28s %x", name, h.Sum(nil))) }
	run := func(h hash.Hash, sched *Schedule, opt Options) *Report {
		rep, err := RunSim(sched, opt)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(rep.Journal)
		fmt.Fprintf(h, "|%d %d %d|%v|%v\n", rep.Ops, rep.Timeouts, rep.Faults, rep.Violations, rep.Warnings)
		return rep
	}
	sweep := func(name string, seeds int64, opt Options) {
		h := sha256.New()
		for seed := int64(0); seed < seeds; seed++ {
			run(h, Generate(seed, opt), opt)
		}
		set(name, h)
	}
	sweep("seeds 0-99, default options", 100, Options{})
	sweep("seeds 0-29, Groups: 3", 30, Options{Groups: 3})

	on, off := sha256.New(), sha256.New()
	for _, r := range teeth {
		rep := run(on, r.sched(r.opt), r.opt)
		t.Logf("  %-26s guard on:  journal %x, %d violations", r.name, sha256.Sum256(rep.Journal), len(rep.Violations))
		if r.off == "" {
			continue
		}
		broken := r.knockedOut()
		rep = run(off, r.sched(broken), broken)
		t.Logf("  %-26s guard off: journal %x, %d violations %x", r.name, sha256.Sum256(rep.Journal),
			len(rep.Violations), sha256.Sum256([]byte(strings.Join(rep.Violations, "\n"))))
	}
	set("crafted, guards on", on)
	set("crafted, guards off", off)

	golden, err := os.ReadFile("testdata/journal_fingerprints.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(golden), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("the simulator's journals moved. testdata/journal_fingerprints.txt changes only in a diff "+
			"whose EXPERIMENTS.md entry names the behaviour that moved; the sets now hash to\n%s",
			strings.Join(got, "\n"))
	}
}
