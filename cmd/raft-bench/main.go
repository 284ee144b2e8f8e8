// Command raft-bench runs the in-memory sweeps the canonical benchmark
// (benchmark/) does not cover yet. The paper's Fig. 16 is the benchmark's
// reconfig-fig16 workload: bash benchmark/run.sh --workload reconfig-fig16.
//
//	raft-bench -reads -json BENCH_10.json # read-path modes + follower scaling
//	raft-bench -shards 1,2,4,8            # multi-raft shard scaling
//	raft-bench -recovery                  # restart recovery and catch-up
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"adore/internal/bench"
)

func main() {
	jsonPath := flag.String("json", "", "also write the result as JSON to this file (BENCH_*.json evidence)")
	recovery := flag.Bool("recovery", false, "run the restart-recovery/catch-up grid (compacted vs full WAL)")
	recoveryHist := flag.String("recovery-histories", "", "comma-separated history sizes for -recovery (default 5000,20000,50000)")
	shards := flag.String("shards", "", "run the multi-raft shard-scaling sweep over these comma-separated group counts (e.g. 1,2,4,8)")
	shardReqs := flag.Int("shard-requests", 0, "operations per shard-sweep point (default 3000)")
	reads := flag.Bool("reads", false, "run the read-path mode grid (ReadIndex / lease / follower) and the follower-scaling sweep")
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

	fmt.Fprintln(os.Stderr, "raft-bench: give -reads, -shards or -recovery (Fig. 16 is benchmark/'s reconfig-fig16 workload)")
	flag.Usage()
	os.Exit(2)
}
