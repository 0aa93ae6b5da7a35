// Command perfbench is the repository's benchmark: whole UI interactions
// against the weak-integration daemon over loopback TCP, with a per-layer
// breakdown from a separate traced run. See README.md in this directory.
//
//	perfbench --workload browse|map_spill|edit --seed N --seconds S --trace 0|1
//
// It prints an environment block and every metric by name, unit and sample
// count, then, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/event"
)

const (
	// blocks is how many equal windows a measured phase is cut into.
	blocks = 10
	// A run sets the system up again and again for setupWindow, and at
	// least minSetups times; setup_s is the median. Spreading the set-ups
	// over seconds means a burst of load from outside the benchmark reaches
	// few of them.
	setupWindow = 5 * time.Second
	minSetups   = 5
)

// validationSeed is held out: tuning used other seeds, so a later claim
// can be confirmed on inputs nobody fitted to.
const validationSeed = 1997

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // small inputs and short warm-up; only tests set it
	sessions int    // closed-loop sessions; 0 means one per core
	dataDir  string // scratch space for the database; removed afterwards
	spansOut string // where the traced run writes its retained spans
	out      io.Writer
}

func main() {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "browse, map_spill or edit")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.dataDir, "data", filepath.Join(".bench_build", "perfbench"), "directory for the run's database files")
	fs.StringVar(&cfg.spansOut, "spans", "", "file for the traced run's spans (default <data>/spans-<workload>.json)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.spansOut == "" {
		cfg.spansOut = filepath.Join(cfg.dataDir, "spans-"+cfg.workload+".json")
	}
	cfg.out = os.Stdout
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the human-readable block and collects the result metrics.
type report struct {
	out io.Writer
	res result
}

func (r *report) env(key string, format string, args ...any) {
	fmt.Fprintf(r.out, "env %-28s %s\n", key, fmt.Sprintf(format, args...))
}

// metric prints a metric with its sample count and, when result is set,
// also puts it in the result.
func (r *report) metric(name string, v float64, unit string, n int64, result bool) {
	fmt.Fprintf(r.out, "metric %-34s %14.6f %-12s n=%d\n", name, v, unit, n)
	if result {
		r.res.Metrics[name] = metric{Value: v, Unit: unit}
	}
}

// timing prints the p50 of an interaction kind, as the median over the
// phase's blocks, and its p99 over the whole phase; when result is set the
// p50 goes in the result. A p99 has ten samples beyond it only with 1000
// samples; when there are fewer, the highest percentile that has ten is
// printed.
func (r *report) timing(name string, ph *phaseResult, k kind, result bool) {
	n := len(ph.lat[k])
	r.metric(name+"_p50_ms", ph.blockMedian(k), "ms", int64(n), result)
	r.metric(name+"_p99_ms", quantile(ph.lat[k], p99), "ms", int64(n), false)
	if pm := tailPercentile(n); pm < p99 {
		fmt.Fprintf(r.out, "note   %s has %d samples: p99 has fewer than ten beyond it; p%g is the highest that has\n",
			name, n, float64(pm)/10)
	}
}

func run(cfg config) error {
	sessions := cfg.sessions
	if sessions == 0 {
		sessions = runtime.NumCPU()
	}
	w, ok := workloads(cfg.quick, sessions)[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want browse, map_spill or edit)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	runDir := filepath.Join(cfg.dataDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	path := filepath.Join(runDir, "geo.db")

	b := &bench{w: w, seed: cfg.seed, pop: genPopulation(), chk: &checker{}}
	b.net = genNetwork(cfg.seed, w.net)
	if err := buildDatabase(path, b.net); err != nil {
		return fmt.Errorf("build database: %w", err)
	}
	b.cur = append([]pole(nil), b.net.Poles...)
	b.edited = make([]bool, len(b.cur))
	b.byOID = make(map[catalog.OID]int, len(b.cur))
	for i, p := range b.cur {
		b.byOID[p.OID] = i
	}
	b.p = &probes{tr: newTracer(4096)}

	setupSecs, dbPages, err := b.setUp(path, cfg.quick)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if b.sys != nil {
			_ = b.sys.close()
		}
	}()

	warm := 3 * time.Second
	if cfg.quick {
		warm = 200 * time.Millisecond
	}
	b.phase(sessions, warm, false, 1)
	measured := time.Duration(cfg.seconds * float64(time.Second))

	rep := &report{out: cfg.out, res: result{Metrics: map[string]metric{}}}
	b.printEnv(rep, cfg, dbPages)
	var phases []*phaseResult
	if !cfg.trace {
		r := b.phase(sessions, measured, false, blocks)
		phases = append(phases, r)
		b.reportEndToEnd(rep, r, setupSecs)
	} else {
		// One session, so every span has one interaction it can belong to
		// (trace.go); the untraced half gives the overhead's base.
		u := b.phase(1, measured/2, false, blocks)
		t := b.phase(1, measured/2, true, blocks)
		phases = append(phases, u, t)
		b.reportLayers(rep, u, t)
		if err := writeSpans(cfg.spansOut, b.p.tr.retained); err != nil {
			return err
		}
		fmt.Fprintf(rep.out, "spans  %d spans of the first traced interactions written to %s\n", len(b.p.tr.retained), cfg.spansOut)
	}
	if w.key == kindCommit {
		if err := b.checkEdits(path); err != nil {
			return fmt.Errorf("edit read-back: %w", err)
		}
		fmt.Fprintf(rep.out, "check  %d edited poles read back over the wire and after reopen\n", b.editCount())
	}
	for _, p := range phases {
		rep.res.Attempted += p.attempted
		rep.res.Failed += p.failed
	}
	rep.res.Correct = b.chk.failures == 0 && b.chk.checks > 0 && rep.res.Failed == 0
	fmt.Fprintf(rep.out, "check  %d output checks, %d failed\n", b.chk.checks, b.chk.failures)
	for _, n := range b.chk.notes {
		fmt.Fprintf(rep.out, "note   %s\n", n)
	}
	line, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	fmt.Fprintf(rep.out, "%s\n", line)
	return nil
}

// setUp reopens the database file and brings the daemon up to its first
// connected session, for setupWindow and at least minSetups times (twice
// when quick); the last system stays up. It returns each set-up's seconds
// and the file's page count.
func (b *bench) setUp(path string, quick bool) ([]float64, uint32, error) {
	window, n := setupWindow, minSetups
	if quick {
		window, n = 0, 2
	}
	var secs []float64
	for start := time.Now(); len(secs) < n || time.Since(start) < window; {
		if b.sys != nil {
			if err := b.sys.close(); err != nil {
				return nil, 0, err
			}
			b.sys = nil
		}
		// The previous set-up's garbage is not collected inside this one.
		runtime.GC()
		t0 := time.Now()
		sys, err := openSystem(path, b.pop, b.p)
		if err != nil {
			return nil, 0, err
		}
		b.sys = sys
		u, err := sys.dial(b.p, nil, event.Context{User: "setup", Application: "perfbench"})
		if err != nil {
			return nil, 0, err
		}
		err = u.sess.Connect()
		secs = append(secs, time.Since(t0).Seconds())
		u.close()
		if err != nil {
			return nil, 0, err
		}
	}
	return secs, b.sys.db.Pool().NumPages(), nil
}

func (b *bench) reportEndToEnd(rep *report, r *phaseResult, setupSecs []float64) {
	rep.metric("setup_s", median(setupSecs), "s", int64(len(setupSecs)), true)
	// The throughput and the p99s are printed but left out of the result:
	// between runs on a shared machine they spread by as much as or more
	// than the largest bound allows (README.md).
	rep.metric("interactions_per_s", r.perSecond(), "1/s", r.completed(), false)
	rep.metric("failed_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted, false)
	rep.timing("session_open", r, kindSessionOpen, true)
	rep.timing("open_instance", r, kindOpenInstance, true)
	for _, k := range b.w.kinds {
		if k == kindZoom || k == kindCommit {
			rep.timing(kindNames[k], r, k, false)
		}
	}
	fmt.Fprintf(rep.out, "note   key_* is %s on %s\n", kindNames[b.w.key], b.w.name)
	rep.timing("key", r, b.w.key, true)
	b.printPhaseInputs(rep, r)
}

// printPhaseInputs prints the measured properties of the inputs a phase
// ran on.
func (b *bench) printPhaseInputs(rep *report, r *phaseResult) {
	c := r.delta.counts
	rep.env("sessions", "%d closed-loop UI sessions, %.1f s measured", r.sessions, r.elapsed.Seconds())
	rep.env("instances_per_zoom", "%.2f over %d zooms", ratio(float64(r.zoomed), float64(r.zooms)), r.zooms)
	rep.env("txn_page_repeat_share", "%.4f of %d page images repeat a page already in their group",
		ratio(float64(c.WALRepeats), float64(c.WALImages)), c.WALImages)
	rep.env("pool_hit_ratio", "%.4f", ratio(float64(r.delta.poolHits), float64(r.delta.poolHits+r.delta.poolMisses)))
}

func (b *bench) reportLayers(rep *report, u, t *phaseResult) {
	tr := b.p.tr
	n := float64(t.completed())
	per := func(v int64) float64 { return ratio(float64(v), n) }
	meanMs := func(name string) (float64, int64) {
		cs := tr.calls[name]
		if cs == nil {
			return 0, 0
		}
		return float64(cs.Total) / float64(cs.N) / 1e6, cs.N
	}
	for k := kind(0); k < numKinds; k++ {
		agg := tr.kinds[k]
		var sum float64
		for l := layer(0); l < numLayers; l++ {
			v := ratio(float64(agg.Self[l]), float64(agg.N)) / 1e6
			sum += v
			rep.metric(layerNames[l]+".self_ms."+kindNames[k], v, "ms", agg.N, true)
		}
		total := ratio(float64(agg.Dur), float64(agg.N)) / 1e6
		rep.metric("interaction_ms."+kindNames[k], total, "ms", agg.N, true)
		if agg.N > 0 {
			fmt.Fprintf(rep.out, "note   %s: layer self times sum to %.6f ms of %.6f ms\n", kindNames[k], sum, total)
		}
	}
	c, d := t.delta.counts, t.delta
	commits := int64(len(t.lat[kindCommit]))
	rep.metric("ui.round_trips", per(c.RoundTrips), "count/op", t.completed(), true)
	rep.metric("wire.bytes", per(c.WireBytes), "B/op", t.completed(), true)
	rep.metric("server.requests", per(d.requests), "count/op", t.completed(), true)
	v, calls := meanMs("active.handle")
	rep.metric("active.dispatch_us", v*1e3, "us", calls, true)
	rep.metric("active.events", per(c.Events), "count/op", t.completed(), true)
	rep.metric("active.cache_hit_ratio", ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMiss)), "ratio", d.cacheHits+d.cacheMiss, true)
	rep.metric("topo.checks", ratio(float64(d.topoChecks), float64(commits)), "count/commit", commits, true)
	rep.metric("geodb.instances", per(c.Instances), "count/op", t.completed(), true)
	rep.metric("pool.hit_ratio", ratio(float64(d.poolHits), float64(d.poolHits+d.poolMisses)), "ratio", d.poolHits+d.poolMisses, true)
	rep.metric("pool.misses", per(d.poolMisses), "count/op", t.completed(), true)
	rep.metric("pool.evictions", per(d.poolEvicts), "count/op", t.completed(), true)
	rep.metric("pager.reads", per(c.PagerReads), "count/op", t.completed(), true)
	v, calls = meanMs("pager.read")
	rep.metric("pager.read_ms", v, "ms", calls, true)
	rep.metric("pager.writes", per(c.PagerWrites), "count/op", t.completed(), true)
	v, calls = meanMs("pager.sync")
	rep.metric("pager.sync_ms", v, "ms", calls, true)
	rep.metric("wal.bytes_per_commit", ratio(float64(c.WALBytes), float64(commits)), "B/commit", commits, true)
	rep.metric("wal.fsyncs_per_commit", ratio(float64(c.WALSyncs), float64(commits)), "count/commit", commits, true)
	v, calls = meanMs("wal.sync")
	rep.metric("wal.fsync_ms", v, "ms", calls, true)
	rep.metric("wal.checkpoints", float64(d.ckpts), "count", d.ckpts, true)
	ck := tr.kinds[kindCommit]
	ckptMs := 0.0
	if ck.ckptN > 0 && ck.N > ck.ckptN {
		ckptMs = (float64(ck.ckptD)/float64(ck.ckptN) - float64(ck.Dur-ck.ckptD)/float64(ck.N-ck.ckptN)) / 1e6
	}
	rep.metric("wal.checkpoint_ms", ckptMs, "ms", ck.ckptN, true)
	rep.metric("wal.repeat_share", ratio(float64(c.WALRepeats), float64(c.WALImages)), "ratio", c.WALImages, true)

	// Runtime figures come from the untraced half, free of the probes' cost.
	un := float64(u.completed())
	ud := u.delta
	rep.metric("go.allocs", ratio(float64(ud.mallocs), un), "count/op", u.completed(), true)
	rep.metric("go.alloc_bytes", ratio(float64(ud.allocBytes), un), "B/op", u.completed(), true)
	rep.metric("go.gc_cycles", float64(ud.gcCycles), "count", ud.gcCycles, true)
	rep.metric("go.gc_pause_ms", float64(ud.gcPauseNs)/1e6, "ms", ud.gcCycles, true)
	rep.metric("cpu_ms", ratio(float64(ud.cpuNs), un)/1e6, "ms/op", u.completed(), true)
	rep.metric("trace.overhead_ratio", ratio(u.perSecond(), t.perSecond()), "ratio", t.completed(), true)
	fmt.Fprintf(rep.out, "note   untraced %.1f/s, traced %.1f/s, one session each; %d spans opened outside any interaction\n",
		u.perSecond(), t.perSecond(), tr.unattributed)
	b.printPhaseInputs(rep, t)
}

// printEnv prints the environment and input block.
func (b *bench) printEnv(rep *report, cfg config, dbPages uint32) {
	rep.env("workload", "%s", cfg.workload)
	rep.env("seed", "%d (held-out validation seed: %d)", cfg.seed, validationSeed)
	rep.env("nproc", "%d", runtime.NumCPU())
	rep.env("gomaxprocs", "%d", runtime.GOMAXPROCS(0))
	rep.env("go", "%s", runtime.Version())
	rep.env("commit", "%s", buildCommit())
	rep.env("data_fs", "%s", fsType(cfg.dataDir))
	rep.env("flush_policy", "WAL fsync per group commit; checkpoint every %d commits", checkpointEvery)
	rep.env("db_pages", "%d pages (%.1f x the %d-page pool)", dbPages, float64(dbPages)/poolPages, poolPages)
	rep.env("network", "%d zones, %d poles, %d-byte pictures", len(b.net.Zones), len(b.net.Poles), b.net.Spec.PictureBytes)
	rep.env("contexts", "%d (juliano with Figure 6, %d with generated directives)", len(b.pop.Contexts), len(b.pop.Customized))
}

func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	if rev == "" {
		return "unknown (built outside a git checkout)"
	}
	return rev + dirty
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown: " + err.Error()
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("type 0x%x", st.Type)
}

// writeSpans writes the retained spans as JSON, one object per span, with
// the layer name added.
func writeSpans(path string, spans []span) error {
	type out struct {
		span
		Layer string `json:"layer"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{span: s, Layer: layerNames[s.Layer]}
	}
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
