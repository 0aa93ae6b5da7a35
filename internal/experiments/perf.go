// Perf harnesses for the PR-4 hot paths (decision cache, pipelined
// client). The constructions live here so the testing.B series in
// bench_test.go and the machine-readable `gisbench -json` artifact measure
// exactly the same workloads.
package experiments

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/active"
	"repro/internal/client"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/ui"
	"repro/internal/workload"
)

// dispatchBackgroundRules is the number of category-scoped directives
// installed alongside Figure 6: a site-wide installation carries rules for
// every (category, application) pair in the organization, and all of them
// sit in the user-wildcard bucket the uncached dispatch must scan for each
// event. 512 ≈ 32 categories × 16 applications.
const dispatchBackgroundRules = 512

// DispatchBench dispatches the Figure 6 schema decision (juliano /
// pole_manager) against an engine that also carries a population of
// category-scoped background rules.
type DispatchBench struct {
	Engine *active.Engine
	Probe  event.Event
	f      *Fixture
}

// NewDispatchBench builds the engine with the decision cache on or off;
// everything else is identical between the two variants.
func NewDispatchBench(cached bool) (*DispatchBench, error) {
	f, err := NewFixture(1, 1, false)
	if err != nil {
		return nil, err
	}
	engine := active.NewEngine()
	engine.CacheDecisions = cached
	a := f.Sys.Analyzer()
	if _, err := a.Install(engine, workload.Figure6Source); err != nil {
		_ = f.Close()
		return nil, err
	}
	var bg []byte
	for i := 0; i < dispatchBackgroundRules; i++ {
		bg = fmt.Appendf(bg, "For category cat%02d application app%02d\nschema %s display as hierarchy\n\n",
			i/16, i%16, workload.SchemaName)
	}
	if _, err := a.Install(engine, string(bg)); err != nil {
		_ = f.Close()
		return nil, err
	}
	return &DispatchBench{
		Engine: engine,
		Probe:  event.Event{Kind: event.GetSchema, Schema: workload.SchemaName, Ctx: JulianoCtx},
		f:      f,
	}, nil
}

// Step dispatches the probe once and drains the pending customization,
// mirroring what a session does per window open.
func (d *DispatchBench) Step() error {
	if err := d.Engine.HandleEvent(d.Probe); err != nil {
		return err
	}
	d.Engine.TakeCustomization(d.Probe)
	return nil
}

func (d *DispatchBench) Close() error { return d.f.Close() }

// laggedBackend simulates a DBMS a network away: every GetSchema pays a
// fixed latency before the real backend answers. Pipelining exists to hide
// exactly this, so the depth contrast stays meaningful on a single CPU.
type laggedBackend struct {
	ui.Backend
	delay time.Duration
}

func (lb *laggedBackend) GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error) {
	time.Sleep(lb.delay)
	return lb.Backend.GetSchema(ctx, schema)
}

// PipelineBench multiplexes concurrent callers over ONE client connection
// against a real pipelined server.Server on a TCP loopback.
type PipelineBench struct {
	Cli *client.Client
	srv *server.Server
	f   *Fixture
}

func NewPipelineBench(delay time.Duration) (*PipelineBench, error) {
	f, err := NewFixture(4, 1, false)
	if err != nil {
		return nil, err
	}
	srv := server.New(&laggedBackend{Backend: f.Sys.Backend, delay: delay})
	srv.PipelineDepth = 16
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	go srv.Serve(l)
	cli, err := client.Dial(l.Addr().String())
	if err != nil {
		_ = srv.Close()
		_ = f.Close()
		return nil, err
	}
	return &PipelineBench{Cli: cli, srv: srv, f: f}, nil
}

// Do issues n GetSchema requests spread over depth concurrent callers
// sharing the one multiplexed connection.
func (p *PipelineBench) Do(depth, n int) error {
	work := make(chan struct{})
	errc := make(chan error, depth)
	var wg sync.WaitGroup
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				if _, _, err := p.Cli.GetSchema(JulianoCtx, workload.SchemaName); err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}()
	}
	var err error
feed:
	for i := 0; i < n; i++ {
		select {
		case work <- struct{}{}:
		case err = <-errc:
			break feed
		}
	}
	close(work)
	wg.Wait()
	if err == nil {
		select {
		case err = <-errc:
		default:
		}
	}
	return err
}

func (p *PipelineBench) Close() {
	_ = p.Cli.Close()
	_ = p.srv.Close()
	_ = p.f.Close()
}

// PerfResult is one benchmark line of the machine-readable artifact.
type PerfResult struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// PerfReport is what `gisbench -json` writes: the raw series plus the
// derived ratios the PR-4 acceptance criteria are stated in.
type PerfReport struct {
	Results []PerfResult       `json:"results"`
	Ratios  map[string]float64 `json:"ratios"`
}

func perfResult(name string, r testing.BenchmarkResult, extra map[string]float64) PerfResult {
	ns := 0.0
	if r.N > 0 {
		ns = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return PerfResult{
		Name:        name,
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Extra:       extra,
	}
}

// RunPerf measures the PR-4 hot paths with testing.Benchmark and returns
// the report. quick shrinks the data sizes and simulated latency for CI.
func RunPerf(quick bool) (*PerfReport, error) {
	rep := &PerfReport{Ratios: map[string]float64{}}

	// Decision cache: identical engines and probe, cache off vs on.
	var dispatchNs = map[bool]float64{}
	for _, cached := range []bool{false, true} {
		d, err := NewDispatchBench(cached)
		if err != nil {
			return nil, err
		}
		var stepErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := d.Step(); err != nil {
					stepErr = err
					return
				}
			}
		})
		name := "dispatch_uncached"
		var extra map[string]float64
		if cached {
			name = "dispatch_cached"
			cs := d.Engine.CacheStats()
			extra = map[string]float64{
				"hit_ratio":    cs.HitRatio(),
				"cached_plans": float64(d.Engine.CachedPlans()),
			}
		}
		_ = d.Close()
		if stepErr != nil {
			return nil, stepErr
		}
		res := perfResult(name, r, extra)
		dispatchNs[cached] = res.NsPerOp
		rep.Results = append(rep.Results, res)
	}
	if dispatchNs[true] > 0 {
		rep.Ratios["dispatch_cached_speedup"] = dispatchNs[false] / dispatchNs[true]
	}

	// Pipelined client: requests per op are identical; only the number of
	// concurrent callers sharing the one connection changes.
	delay := 200 * time.Microsecond
	if quick {
		delay = 100 * time.Microsecond
	}
	pb, err := NewPipelineBench(delay)
	if err != nil {
		return nil, err
	}
	var pipeNs = map[int]float64{}
	for _, depth := range []int{1, 4, 16} {
		depth := depth
		var doErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			if err := pb.Do(depth, b.N); err != nil {
				doErr = err
			}
		})
		if doErr != nil {
			pb.Close()
			return nil, doErr
		}
		res := perfResult(fmt.Sprintf("client_pipelined_depth%d", depth), r, nil)
		pipeNs[depth] = res.NsPerOp
		rep.Results = append(rep.Results, res)
	}
	pb.Close()
	if pipeNs[16] > 0 {
		rep.Ratios["pipeline_depth16_speedup"] = pipeNs[1] / pipeNs[16]
	}

	return rep, nil
}

// WritePerfJSON runs the perf series and writes the report to path.
func WritePerfJSON(path string, quick bool) (*PerfReport, error) {
	rep, err := RunPerf(quick)
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
