package main

// Workload drivers. Each slot is one closed loop: it opens a UI session,
// runs the workload's script of interactions through it, each waiting for
// its window before the next, closes it and opens the next, until the phase
// ends. An interaction that starts before the deadline runs to completion
// and is counted.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/ui"
	"repro/internal/uikit"
	"repro/internal/workload"
)

var errPhaseOver = errors.New("phase over")

// workloadDef is one workload: its network and its session script.
type workloadDef struct {
	name string
	net  netSpec
	// key is the interaction the workload is built around.
	key kind
	// kinds are the interaction kinds the script runs.
	kinds   []kind
	session func(s *slot) error
}

// Session script sizes. Only editOps is given by the workload's
// definition; the others are assumptions, with their reasons in README.md
// ("Assumptions in the session scripts").
const (
	browseInstances = 16    // instance opens per browse session
	mapZooms        = 2     // viewports per map session
	mapPicks        = 2     // visible poles opened per viewport
	editRounds      = 2     // open-then-commit rounds per editor session
	editOps         = 4     // updates per transaction
	viewMin         = 200.0 // viewport side, world units
	viewMax         = 450.0
)

// workloads defines every workload for the given number of sessions. Each
// editor session owns at least editOps poles of every zone.
func workloads(quick bool, sessions int) map[string]*workloadDef {
	small := netSpec{ZonesPerSide: 2, PolesPerZone: 64, Suppliers: 3}
	edit := small
	edit.PolesPerZone = max(small.PolesPerZone, editOps*sessions)
	spill := netSpec{ZonesPerSide: 4, PolesPerZone: 256, Suppliers: 3, PictureBytes: 1024}
	if quick {
		spill = netSpec{ZonesPerSide: 2, PolesPerZone: 64, Suppliers: 3, PictureBytes: 1024}
	}
	return map[string]*workloadDef{
		"browse": {
			name: "browse", net: small, key: kindSessionOpen,
			kinds:   []kind{kindSessionOpen, kindOpenInstance},
			session: browseSession,
		},
		"map_spill": {
			name: "map_spill", net: spill, key: kindZoom,
			kinds:   []kind{kindSessionOpen, kindZoom, kindOpenInstance},
			session: mapSession,
		},
		"edit": {
			name: "edit", net: edit, key: kindCommit,
			kinds:   []kind{kindSessionOpen, kindOpenInstance, kindCommit},
			session: editSession,
		},
	}
}

// bench is one run's state shared by its slots.
type bench struct {
	w     *workloadDef
	seed  int64
	net   *network
	byOID map[catalog.OID]int
	pop   population
	sys   *system
	p     *probes
	chk   *checker
	// cur is the acknowledged state of every pole; a slot writes only the
	// poles it owns.
	cur    []pole
	edited []bool
	phases int
}

// slot is one closed-loop client.
type slot struct {
	b        *bench
	id       int
	rng      *rand.Rand
	lib      *uikit.Library
	deadline time.Time

	lat               [numKinds][]sample
	start             time.Time
	attempted, failed int64
	zooms, zoomed     int64 // viewports, instances shown in them
	nextCtx           int
	ctxOrder          []int
	owned             [][]int // edit: owned pole indexes per zone
	editSeq           int
	vp                geom.Rect // map: the walk's current viewport
}

// do times one interaction of kind k.
func (s *slot) do(k kind, f func() error) error {
	if !time.Now().Before(s.deadline) {
		return errPhaseOver
	}
	tr := s.b.p.tr
	tr.beginInteraction(k)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	tr.endInteraction()
	s.attempted++
	if err != nil {
		s.failed++
		s.b.chk.note("%s interaction failed: %v", kindNames[k], err)
		return err
	}
	s.lat[k] = append(s.lat[k], sample{ms: float64(d.Nanoseconds()) / 1e6, done: time.Since(s.start)})
	return nil
}

// sample is one completed interaction: its latency and when, since the
// phase began, it completed.
type sample struct {
	ms   float64
	done time.Duration
}

func (s *slot) open(ctx event.Context) (*uiSession, *uikit.Widget, error) {
	var u *uiSession
	var win *uikit.Widget
	err := s.do(kindSessionOpen, func() (err error) {
		u, win, err = s.b.sys.openSession(s.b.p, s.lib, ctx)
		return err
	})
	return u, win, err
}

func (s *slot) openInstance(u *uiSession, pi int) error {
	var win *uikit.Widget
	if err := s.do(kindOpenInstance, func() (err error) {
		win, err = u.sess.OpenInstance(s.b.cur[pi].OID)
		return err
	}); err != nil {
		return err
	}
	s.b.checkInstance(win, s.b.cur[pi], s.b.pop.view(u.sess.Context()))
	return nil
}

// browseSession: a context from the population opens a session (juliano's
// auto-opens the Pole class window, R1) and opens instance windows.
func browseSession(s *slot) error {
	if s.nextCtx%len(s.ctxOrder) == 0 {
		s.rng.Shuffle(len(s.ctxOrder), func(i, j int) { s.ctxOrder[i], s.ctxOrder[j] = s.ctxOrder[j], s.ctxOrder[i] })
	}
	ctx := s.b.pop.Contexts[s.ctxOrder[s.nextCtx%len(s.ctxOrder)]]
	s.nextCtx++
	u, _, err := s.open(ctx)
	if err != nil {
		return err
	}
	defer u.close()
	if ctx.User == juliano.User {
		s.b.checkAutoOpen(u)
	}
	for i := 0; i < browseInstances; i++ {
		if err := s.openInstance(u, s.rng.Intn(len(s.b.cur))); err != nil {
			return err
		}
	}
	return nil
}

// mapSession: a generic-context viewer pans and zooms along its random walk
// of viewports, which goes on from session to session, and opens poles
// visible in each.
func mapSession(s *slot) error {
	u, _, err := s.open(event.Context{User: fmt.Sprintf("viewer%02d", s.id), Application: "map_viewer"})
	if err != nil {
		return err
	}
	defer u.close()
	world := s.b.net.bounds()
	for z := 0; z < mapZooms; z++ {
		s.vp = s.walk(s.vp, world)
		vp := s.vp
		var win *uikit.Widget
		if err := s.do(kindZoom, func() (err error) {
			win, err = u.sess.OpenClassZoomed(schemaName, "Pole", vp)
			return err
		}); err != nil {
			return err
		}
		shown := s.b.checkZoom(win, vp)
		s.zooms++
		s.zoomed += int64(len(shown))
		for k := 0; k < mapPicks && len(shown) > 0; k++ {
			if err := s.openInstance(u, s.b.byOID[shown[s.rng.Intn(len(shown))]]); err != nil {
				return err
			}
		}
	}
	return nil
}

// jump picks a fresh viewport anywhere in the world.
func (s *slot) jump(world geom.Rect) geom.Rect {
	side := viewMin + s.rng.Float64()*(viewMax-viewMin)
	x := world.Min.X + s.rng.Float64()*(world.Max.X-world.Min.X-side)
	y := world.Min.Y + s.rng.Float64()*(world.Max.Y-world.Min.Y-side)
	return geom.R(x, y, x+side, y+side)
}

// walk pans by up to one viewport and zooms by up to 25%; one step in four
// jumps elsewhere, so the walk keeps reaching pages the pool does not hold.
func (s *slot) walk(vp geom.Rect, world geom.Rect) geom.Rect {
	if s.rng.Intn(4) == 0 {
		return s.jump(world)
	}
	side := (vp.Max.X - vp.Min.X) * (0.8 + s.rng.Float64()*0.45)
	side = min(max(side, viewMin), viewMax)
	x := vp.Min.X + (s.rng.Float64()*2-1)*side
	y := vp.Min.Y + (s.rng.Float64()*2-1)*side
	x = min(max(x, world.Min.X), world.Max.X-side)
	y = min(max(y, world.Min.Y), world.Max.Y-side)
	return geom.R(x, y, x+side, y+side)
}

// editSession: an editor opens the poles it is about to change, then
// commits one transaction moving each inside its zone and rewriting its
// history. Each slot owns a disjoint set of poles, so every acknowledged
// value has one writer and must read back.
func editSession(s *slot) error {
	ctx := event.Context{User: fmt.Sprintf("editor%02d", s.id), Application: "pole_editor"}
	u, _, err := s.open(ctx)
	if err != nil {
		return err
	}
	defer u.close()
	for r := 0; r < editRounds; r++ {
		zi := s.rng.Intn(len(s.owned))
		own := s.owned[zi]
		picks := s.rng.Perm(len(own))[:editOps]
		for _, k := range picks {
			if err := s.openInstance(u, own[k]); err != nil {
				return err
			}
		}
		ops := make([]ui.TxnOp, editOps)
		next := make([]pole, editOps)
		zr := s.b.net.Zones[zi].Rect
		for i, k := range picks {
			p := s.b.cur[own[k]]
			p.X, p.Y = insideZone(s.rng, zr)
			s.editSeq++
			p.Historic = fmt.Sprintf("edited by %s, change %d", ctx.User, s.editSeq)
			next[i] = p
			ops[i] = ui.TxnOp{Kind: ui.TxnUpdate, OID: p.OID, Values: s.b.net.values(p, s.b.net.picture(own[k]))}
		}
		err := s.do(kindCommit, func() error {
			_, err := u.be.CommitTxn(ctx, ops)
			return err
		})
		if err != nil {
			// The outcome is unknown: stop checking these poles.
			for _, k := range picks {
				s.b.edited[own[k]] = false
			}
			return err
		}
		for i, k := range picks {
			s.b.cur[own[k]] = next[i]
			s.b.edited[own[k]] = true
		}
	}
	return nil
}

// phaseResult is what one phase measured. The phase is cut into equal
// blocks by completion time; a p50 or a rate is reported as the median of
// its per-block values, so a burst of load from outside the benchmark that
// hits a few blocks moves it little.
type phaseResult struct {
	sessions  int
	elapsed   time.Duration
	lat       [numKinds][]float64 // every sample, sorted, ms
	blocks    []block
	blockLen  time.Duration
	attempted int64
	failed    int64
	zooms     int64
	zoomed    int64
	delta     snapshot
}

type block struct {
	lat [numKinds][]float64 // sorted, ms
	// done counts the interactions completed inside the block's window;
	// those finishing after the deadline only add latency samples.
	done int64
}

func (r *phaseResult) completed() int64 {
	var n int64
	for _, l := range r.lat {
		n += int64(len(l))
	}
	return n
}

// perSecond is the median of the blocks' completion rates.
func (r *phaseResult) perSecond() float64 {
	rates := make([]float64, len(r.blocks))
	for i, bl := range r.blocks {
		rates[i] = float64(bl.done) / r.blockLen.Seconds()
	}
	return median(rates)
}

// blockMedian is the median over blocks of each block's p50 of kind k.
func (r *phaseResult) blockMedian(k kind) float64 {
	vals := make([]float64, len(r.blocks))
	for i, bl := range r.blocks {
		vals[i] = quantile(bl.lat[k], p50)
	}
	return median(vals)
}

// phase runs the workload with the given number of slots for d, cut into
// the given number of blocks.
func (b *bench) phase(sessions int, d time.Duration, traced bool, blocks int) *phaseResult {
	b.phases++
	before := b.snapshot()
	b.p.tr.on.Store(traced)
	start := time.Now()
	slots := make([]*slot, sessions)
	var wg sync.WaitGroup
	for i := range slots {
		s := b.newSlot(i, sessions, start, d)
		slots[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(s.deadline) {
				// A failed interaction is counted by do; the slot goes
				// on with a new session.
				_ = b.w.session(s)
			}
		}()
	}
	wg.Wait()
	r := &phaseResult{sessions: sessions, elapsed: time.Since(start),
		blocks: make([]block, blocks), blockLen: d / time.Duration(blocks)}
	b.p.tr.on.Store(false)
	r.delta = b.snapshot().sub(before)
	for _, s := range slots {
		for k := range s.lat {
			for _, smp := range s.lat[k] {
				r.lat[k] = append(r.lat[k], smp.ms)
				bi := min(int(smp.done/r.blockLen), blocks-1)
				r.blocks[bi].lat[k] = append(r.blocks[bi].lat[k], smp.ms)
				if smp.done < d {
					r.blocks[bi].done++
				}
			}
		}
		r.attempted += s.attempted
		r.failed += s.failed
		r.zooms += s.zooms
		r.zoomed += s.zoomed
	}
	for k := range r.lat {
		sort.Float64s(r.lat[k])
		for _, bl := range r.blocks {
			sort.Float64s(bl.lat[k])
		}
	}
	return r
}

func (b *bench) newSlot(id, of int, start time.Time, d time.Duration) *slot {
	lib, err := workload.StandardLibrary()
	if err != nil {
		panic(err) // the standard library is a constant
	}
	s := &slot{
		b: b, id: id, lib: lib, start: start, deadline: start.Add(d),
		rng: rand.New(rand.NewSource(b.seed*1000003 + int64(b.phases)*101 + int64(id))),
	}
	for i := range b.pop.Contexts {
		s.ctxOrder = append(s.ctxOrder, i)
	}
	s.vp = s.jump(b.net.bounds())
	s.owned = make([][]int, len(b.net.ZonePoles))
	for zi, idx := range b.net.ZonePoles {
		for j, pi := range idx {
			if j%of == id {
				s.owned[zi] = append(s.owned[zi], pi)
			}
		}
	}
	return s
}

// snapshot is every counter a phase reports the delta of.
type snapshot struct {
	counts     countSnapshot
	poolHits   int64
	poolMisses int64
	poolEvicts int64
	cacheHits  int64
	cacheMiss  int64
	topoChecks int64
	requests   int64
	ckpts      int64
	mallocs    int64
	allocBytes int64
	gcCycles   int64
	gcPauseNs  int64
	cpuNs      int64
}

func (b *bench) snapshot() snapshot {
	db := b.sys.db
	ps := db.Pool().Stats()
	cs := b.sys.engine.CacheStats()
	// Stats takes the database lock, ordering this read of the guard's
	// plain counter after every commit that bumped it.
	_ = db.Stats()
	var ms runtimeStats
	ms.read()
	return snapshot{
		counts:   b.p.c.snapshot(),
		poolHits: int64(ps.Hits), poolMisses: int64(ps.Misses), poolEvicts: int64(ps.Evictions),
		cacheHits: int64(cs.Hits), cacheMiss: int64(cs.Misses),
		topoChecks: int64(b.sys.guard.Checks),
		requests:   int64(b.sys.srv.Requests.Load()),
		ckpts:      int64(obs.Default().Snapshot().Counters["gis_wal_checkpoints_total"]),
		mallocs:    ms.mallocs, allocBytes: ms.allocBytes,
		gcCycles: ms.gcCycles, gcPauseNs: ms.gcPauseNs, cpuNs: ms.cpuNs,
	}
}

func (s snapshot) sub(o snapshot) snapshot {
	return snapshot{
		counts:   s.counts.sub(o.counts),
		poolHits: s.poolHits - o.poolHits, poolMisses: s.poolMisses - o.poolMisses,
		poolEvicts: s.poolEvicts - o.poolEvicts,
		cacheHits:  s.cacheHits - o.cacheHits, cacheMiss: s.cacheMiss - o.cacheMiss,
		topoChecks: s.topoChecks - o.topoChecks, requests: s.requests - o.requests,
		ckpts:   s.ckpts - o.ckpts,
		mallocs: s.mallocs - o.mallocs, allocBytes: s.allocBytes - o.allocBytes,
		gcCycles: s.gcCycles - o.gcCycles, gcPauseNs: s.gcPauseNs - o.gcPauseNs,
		cpuNs: s.cpuNs - o.cpuNs,
	}
}

// runtimeStats is the Go runtime's and the kernel's view of the process.
type runtimeStats struct {
	mallocs, allocBytes, gcCycles, gcPauseNs, cpuNs int64
}

func (r *runtimeStats) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs, r.allocBytes = int64(ms.Mallocs), int64(ms.TotalAlloc)
	r.gcCycles, r.gcPauseNs = int64(ms.NumGC), int64(ms.PauseTotalNs)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
}
