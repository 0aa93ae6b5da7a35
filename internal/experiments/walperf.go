// Perf harness for the PR-5 durability work, updated for PR-10's group
// commit: what does the write-ahead log cost, and what does coalescing its
// fsyncs buy back? Three configurations of the same file-backed insert
// workload — WAL off (the pre-WAL baseline, durable only at Close), WAL
// with one sequential writer (every acknowledged insert pays a full fsync),
// and WAL with 8 concurrent writers whose commits share fsyncs through the
// group-commit leader (every ack still durable; see DESIGN.md §15). The
// old batched-fsync variant is gone with the option it measured: deferring
// fsyncs traded acknowledged durability for speed, group commit doesn't.
// The testing.B series in bench_test.go and `gisbench -wal-json`
// (BENCH_PR5.json) run exactly these constructions.
package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
)

// WALBench inserts fixed-shape rows into a file-backed database under one
// durability configuration.
type WALBench struct {
	DB  *geodb.DB
	ctx event.Context
	seq atomic.Int64
}

// NewWALBench opens a fresh file-backed database in dir, named after the
// variant. disable turns the WAL off entirely.
func NewWALBench(dir, name string, disable bool) (*WALBench, error) {
	path := filepath.Join(dir, fmt.Sprintf("walbench-%s.pages", name))
	db, err := geodb.Open(geodb.Options{
		Name:       "WALBENCH",
		Path:       path,
		DisableWAL: disable,
	})
	if err != nil {
		return nil, err
	}
	if err := db.DefineSchema("net"); err != nil {
		_ = db.Close()
		return nil, err
	}
	if err := db.DefineClass("net", catalog.Class{
		Name: "Station",
		Attrs: []catalog.Field{
			catalog.F("name", catalog.Scalar(catalog.KindText)),
			catalog.F("load", catalog.Scalar(catalog.KindInteger)),
		},
	}); err != nil {
		_ = db.Close()
		return nil, err
	}
	return &WALBench{DB: db, ctx: event.Context{User: "bench", Application: "walperf"}}, nil
}

// Step acknowledges one insert (the measured unit: mutate, log, fsync per
// the configuration). Safe for concurrent use — the grouped variant runs
// many Steps at once.
func (wb *WALBench) Step() error {
	i := wb.seq.Add(1)
	_, err := wb.DB.Insert(wb.ctx, "net", "Station", []catalog.Value{
		catalog.TextVal(fmt.Sprintf("s%08d", i)),
		catalog.IntVal(i),
	})
	return err
}

// Close checkpoints and closes the database.
func (wb *WALBench) Close() error { return wb.DB.Close() }

// walVariant names one durability configuration of the series.
type walVariant struct {
	Name    string
	Disable bool
	Writers int
}

func walVariants() []walVariant {
	return []walVariant{
		{"insert_wal_off", true, 1},       // pre-WAL baseline: durable at Close only
		{"insert_wal_synced", false, 1},   // one writer: fsync per acknowledged insert
		{"insert_wal_grouped8", false, 8}, // 8 writers: concurrent commits share fsyncs
	}
}

// runWALSteps drives n Steps split across the variant's writers and
// returns the wall-clock result (N = acknowledged inserts).
func runWALSteps(wb *WALBench, writers, n int) (testing.BenchmarkResult, error) {
	if writers <= 1 {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := wb.Step(); err != nil {
				return testing.BenchmarkResult{}, err
			}
		}
		return testing.BenchmarkResult{N: n, T: time.Since(start)}, nil
	}
	errs := make([]error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		share := n / writers
		if w < n%writers {
			share++
		}
		wg.Add(1)
		go func(w, share int) {
			defer wg.Done()
			for i := 0; i < share; i++ {
				if err := wb.Step(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, share)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
	}
	return testing.BenchmarkResult{N: n, T: elapsed}, nil
}

// RunWALPerf measures the durability series. quick caps each measurement at
// a fixed small iteration count for CI; the full run sizes the pass to get
// a stable per-op figure without testing.Benchmark's ramp-up hammering the
// disk's fsync budget.
func RunWALPerf(quick bool) (*PerfReport, error) {
	rep := &PerfReport{Ratios: map[string]float64{}}
	dir, err := os.MkdirTemp("", "walperf")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	n := 2000
	if quick {
		n = 150
	}
	ns := map[string]float64{}
	for _, v := range walVariants() {
		wb, err := NewWALBench(dir, v.Name, v.Disable)
		if err != nil {
			return nil, err
		}
		r, stepErr := runWALSteps(wb, v.Writers, n)
		closeErr := wb.Close()
		if stepErr != nil {
			return nil, stepErr
		}
		if closeErr != nil {
			return nil, closeErr
		}
		res := perfResult(v.Name, r, map[string]float64{"writers": float64(v.Writers)})
		ns[v.Name] = res.NsPerOp
		rep.Results = append(rep.Results, res)
	}
	if ns["insert_wal_off"] > 0 {
		rep.Ratios["wal_synced_cost"] = ns["insert_wal_synced"] / ns["insert_wal_off"]
		rep.Ratios["wal_grouped8_cost"] = ns["insert_wal_grouped8"] / ns["insert_wal_off"]
	}
	if ns["insert_wal_grouped8"] > 0 {
		rep.Ratios["wal_group_commit_speedup"] = ns["insert_wal_synced"] / ns["insert_wal_grouped8"]
	}
	return rep, nil
}

// WriteWALPerfJSON runs the durability series and writes BENCH_PR5.json.
func WriteWALPerfJSON(path string, quick bool) (*PerfReport, error) {
	rep, err := RunWALPerf(quick)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}
