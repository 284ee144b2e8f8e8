// Command raft-bench regenerates Fig. 16: client-request latency of the
// executable Raft runtime under hot reconfiguration, following the paper's
// schedule (5 nodes → 3 → 5, reconfiguring every 1000 requests).
//
//	raft-bench                      # the paper's parameters
//	raft-bench -requests 2000 -reconfig-every 400 -window 50
//	raft-bench -runs 8              # the paper aggregates 8 runs
//	raft-bench -clients 16          # concurrent closed-loop clients
//	raft-bench -reads -json BENCH_10.json # read-path modes + follower scaling
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"adore/internal/bench"
)

func main() {
	opts := bench.Fig16Defaults()
	flag.IntVar(&opts.Requests, "requests", opts.Requests, "total client requests")
	flag.IntVar(&opts.ReconfigEvery, "reconfig-every", opts.ReconfigEvery, "requests between membership changes")
	flag.IntVar(&opts.StartNodes, "nodes", opts.StartNodes, "initial cluster size")
	flag.DurationVar(&opts.NetLatency, "latency", opts.NetLatency, "simulated one-way network latency")
	flag.DurationVar(&opts.NetJitter, "jitter", opts.NetJitter, "simulated latency jitter")
	flag.Int64Var(&opts.Seed, "seed", opts.Seed, "random seed")
	flag.IntVar(&opts.Clients, "clients", 1, "concurrent closed-loop clients")
	flag.BoolVar(&opts.Durable, "durable", false, "back each node with a file WAL (fsync on the critical path)")
	flag.BoolVar(&opts.DisablePreVote, "disable-prevote", false, "turn off Pre-Vote (measure reconfiguration without election robustness)")
	flag.BoolVar(&opts.DisableCheckQuorum, "disable-checkquorum", false, "turn off CheckQuorum step-down")
	window := flag.Int("window", 100, "requests per report window")
	runs := flag.Int("runs", 1, "independent runs (the paper reports 8)")
	jsonPath := flag.String("json", "", "also write the runs as JSON to this file (BENCH_*.json evidence)")
	availability := flag.Bool("availability", false, "run the liveness/availability probe instead of Fig. 16")
	recovery := flag.Bool("recovery", false, "run the restart-recovery/catch-up grid (compacted vs full WAL) instead of Fig. 16")
	recoveryHist := flag.String("recovery-histories", "", "comma-separated history sizes for -recovery (default 5000,20000,50000)")
	shards := flag.String("shards", "", "run the multi-raft shard-scaling sweep over these comma-separated group counts (e.g. 1,2,4,8) instead of Fig. 16")
	shardReqs := flag.Int("shard-requests", 0, "operations per shard-sweep point (default 3000)")
	reads := flag.Bool("reads", false, "run the read-path mode grid (ReadIndex / lease / follower) and the follower-scaling sweep instead of Fig. 16")
	readClients := flag.String("read-clients", "", "comma-separated closed-loop client counts for the -reads mode grid (default 4,16,32)")
	readReqs := flag.Int("read-requests", 0, "operations per -reads point (default 4000)")
	flag.Parse()

	if *reads {
		opts := bench.ReadsDefaults()
		if *readClients != "" {
			opts.ClientCounts = opts.ClientCounts[:0]
			for _, f := range strings.Split(*readClients, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil || n < 1 {
					fmt.Fprintf(os.Stderr, "bad -read-clients entry %q (must be a positive int)\n", f)
					os.Exit(1)
				}
				opts.ClientCounts = append(opts.ClientCounts, n)
			}
		}
		if *readReqs > 0 {
			opts.Requests = *readReqs
		}
		res, err := bench.RunReads(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res.Print(os.Stdout)
		if *jsonPath != "" {
			if err := bench.WriteJSON(*jsonPath, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote read sweep to %s\n", *jsonPath)
		}
		return
	}

	if *shards != "" {
		opts := bench.ShardsDefaults()
		opts.ShardCounts = opts.ShardCounts[:0]
		for _, f := range strings.Split(*shards, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad -shards entry %q (must be a positive int)\n", f)
				os.Exit(1)
			}
			opts.ShardCounts = append(opts.ShardCounts, n)
		}
		if *shardReqs > 0 {
			opts.Requests = *shardReqs
		}
		res, err := bench.RunShards(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res.Print(os.Stdout)
		if *jsonPath != "" {
			if err := bench.WriteJSON(*jsonPath, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote shard sweep to %s\n", *jsonPath)
		}
		return
	}

	if *recovery {
		opts := bench.RecoveryDefaults()
		if *recoveryHist != "" {
			opts.Histories = opts.Histories[:0]
			for _, f := range strings.Split(*recoveryHist, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil || n <= opts.RetainTail {
					fmt.Fprintf(os.Stderr, "bad -recovery-histories entry %q (must be an int > %d)\n", f, opts.RetainTail)
					os.Exit(1)
				}
				opts.Histories = append(opts.Histories, n)
			}
		}
		res, err := bench.RunRecovery(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res.Print(os.Stdout)
		if *jsonPath != "" {
			if err := bench.WriteJSON(*jsonPath, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote recovery grid to %s\n", *jsonPath)
		}
		return
	}

	if *availability {
		res, err := bench.RunAvailability(bench.AvailabilityDefaults())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res.Print(os.Stdout)
		return
	}

	var results []bench.Fig16JSON
	for run := 0; run < *runs; run++ {
		o := opts
		o.Seed = opts.Seed + int64(run)
		name := fmt.Sprintf("fig16-run%d", run+1)
		res, err := bench.RunFig16(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("===== %s (seed %d, %d clients) =====\n", name, o.Seed, max(1, o.Clients))
		res.Print(os.Stdout, *window)
		fmt.Println()
		results = append(results, res.JSON(name, o, *window))
		time.Sleep(50 * time.Millisecond) // let goroutines drain between runs
	}

	if *jsonPath != "" {
		if err := bench.WriteJSON(*jsonPath, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d runs to %s\n", len(results), *jsonPath)
	}
}
