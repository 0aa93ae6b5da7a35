// Command gisbench regenerates the paper's evaluation artifacts: every
// figure (F1–F7) reproduced behaviorally and every characterization
// benchmark (B1–B9) from DESIGN.md's experiment index.
//
// Usage:
//
//	gisbench -list              # show the experiment registry
//	gisbench -exp F7            # run one experiment
//	gisbench -exp F1,B2,B6      # run several
//	gisbench -exp all           # run everything
//	gisbench -exp all -quick    # reduced sizes (CI)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		expFlag = flag.String("exp", "", "experiment id(s), comma-separated, or 'all'")
		list    = flag.Bool("list", false, "list experiments")
		quick   = flag.Bool("quick", false, "reduced sizes for fast runs")
		metrics = flag.Bool("metrics", false, "print the metrics delta after each experiment")
		jsonOut = flag.String("json", "", "run the PR-4 perf series (decision cache, pipelined client) and write machine-readable results to this file")
		walOut  = flag.String("wal-json", "", "run the PR-5 durability series (WAL off vs synced vs group-committed) and write machine-readable results to this file")
		replOut = flag.String("repl-json", "", "run the PR-7 replication series (read throughput at 0/1/2/4 replicas) and write machine-readable results to this file")
		txnOut  = flag.String("txn-json", "", "run the PR-10 group-commit series (transaction throughput at 1/2/4/8 writers vs the fsync-per-insert baseline) and write machine-readable results to this file; fails unless scaling is monotonic and 8 writers clear 3x the baseline")
	)
	flag.Parse()

	if *txnOut != "" {
		rep, err := experiments.WriteTxnPerfJSON(*txnOut, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gisbench: group-commit series failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n\n", *txnOut)
		fmt.Printf("%-28s %14s %16s %16s\n", "benchmark", "ns/op", "txns/sec", "ops/sec")
		for _, r := range rep.Results {
			fmt.Printf("%-28s %14.0f %16.0f %16.0f\n", r.Name, r.NsPerOp, r.Extra["txns_per_sec"], r.Extra["ops_per_sec"])
		}
		fmt.Println()
		for _, k := range []string{"txn_scaleout_2w", "txn_scaleout_4w", "txn_scaleout_8w", "txn_group_commit_speedup"} {
			if v, ok := rep.Ratios[k]; ok {
				fmt.Printf("%-28s %14.2fx\n", k, v)
			}
		}
		return
	}

	if *replOut != "" {
		rep, err := experiments.WriteReplPerfJSON(*replOut, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gisbench: replication series failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n\n", *replOut)
		fmt.Printf("%-28s %14s %16s\n", "benchmark", "ns/op", "reads/sec")
		for _, r := range rep.Results {
			fmt.Printf("%-28s %14.0f %16.0f\n", r.Name, r.NsPerOp, r.Extra["reads_per_sec"])
		}
		fmt.Println()
		for _, k := range []string{"read_scaleout_1_replica", "read_scaleout_2_replicas", "read_scaleout_4_replicas"} {
			if v, ok := rep.Ratios[k]; ok {
				fmt.Printf("%-28s %14.2fx\n", k, v)
			}
		}
		return
	}

	if *walOut != "" {
		rep, err := experiments.WriteWALPerfJSON(*walOut, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gisbench: durability series failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n\n", *walOut)
		fmt.Printf("%-28s %14s %16s\n", "benchmark", "ns/op", "inserts/sec")
		for _, r := range rep.Results {
			persec := 0.0
			if r.NsPerOp > 0 {
				persec = 1e9 / r.NsPerOp
			}
			fmt.Printf("%-28s %14.0f %16.0f\n", r.Name, r.NsPerOp, persec)
		}
		fmt.Println()
		for _, k := range []string{"wal_synced_cost", "wal_grouped8_cost", "wal_group_commit_speedup"} {
			if v, ok := rep.Ratios[k]; ok {
				fmt.Printf("%-28s %14.2fx\n", k, v)
			}
		}
		return
	}

	if *jsonOut != "" {
		rep, err := experiments.WritePerfJSON(*jsonOut, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gisbench: perf series failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n\n", *jsonOut)
		fmt.Printf("%-28s %14s %12s %12s\n", "benchmark", "ns/op", "allocs/op", "B/op")
		for _, r := range rep.Results {
			fmt.Printf("%-28s %14.0f %12d %12d\n", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		}
		fmt.Println()
		for _, k := range []string{"dispatch_cached_speedup", "pipeline_depth16_speedup"} {
			if v, ok := rep.Ratios[k]; ok {
				fmt.Printf("%-28s %14.2fx\n", k, v)
			}
		}
		return
	}

	if *list || *expFlag == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-3s %-58s (%s)\n", e.ID, e.Title, e.Paper)
		}
		if *expFlag == "" {
			fmt.Println("\nrun with -exp <id>[,<id>...] or -exp all")
		}
		return
	}

	var ids []string
	if *expFlag == "all" {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	failed := false
	for i, id := range ids {
		e, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "gisbench: unknown experiment %q (use -list)\n", id)
			failed = true
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("============ %s: %s [%s] ============\n\n", e.ID, e.Title, e.Paper)
		before := obs.Default().Snapshot()
		if err := e.Run(os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "gisbench: %s failed: %v\n", e.ID, err)
			failed = true
		}
		if *metrics {
			fmt.Printf("\n---- %s metrics delta ----\n", e.ID)
			delta := obs.Default().Snapshot().Sub(before)
			if err := delta.WriteText(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "gisbench: metrics delta: %v\n", err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
