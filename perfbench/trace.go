package main

// Span recording for the traced run. Probes in probes.go open a span around
// each call into a layer's public interface; spans of one interaction share
// its id and form a tree by the stack of open spans. The traced phase
// drives a single session, so every span that opens while an interaction is
// open belongs to it: the probes sit on goroutines they cannot name (a
// server connection's goroutine, the client's), and reading a goroutine id
// costs 3–20 µs a call, more than most of the calls being timed.
//
// A layer's self time is its spans' durations minus the part of each span
// its children cover. The self times of one interaction's layers add up to
// the interaction's duration.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layer is one of the repository's module groups a probe times.
type layer int

const (
	layerUI     layer = iota // ui + builder: the interaction outside backend calls
	layerWire                // client + proto + server: a client call minus the server's backend time
	layerGeodb               // geodb + rtree: server-side backend time minus the layers below
	layerActive              // active + topo: event dispatch on the bus
	layerPager               // storage: page file reads, writes, syncs
	layerWAL                 // storage: log file writes, syncs, truncates
	numLayers
)

var layerNames = [numLayers]string{"ui", "wire", "geodb", "active", "pager", "wal"}

// kind is an interaction kind.
type kind int

const (
	kindSessionOpen kind = iota
	kindOpenInstance
	kindZoom
	kindCommit
	numKinds
)

var kindNames = [numKinds]string{"session_open", "open_instance", "zoom", "commit"}

// span is one timed call. Start and End are nanoseconds since the tracer's
// epoch; Parent indexes the interaction's span list (-1 for the root).
type span struct {
	Name        string `json:"name"`
	Layer       layer  `json:"-"`
	Start       int64  `json:"start_ns"`
	End         int64  `json:"end_ns"`
	Parent      int    `json:"parent"`
	Interaction int64  `json:"interaction"`
}

// selfTimes returns each span's duration minus the union of its children's
// intervals, clipped to the span. Children may nest and overlap.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s.Start, s.End, spans, children[i])
	}
	return self
}

// covered is the length of [lo, hi) that the listed spans cover.
func covered(lo, hi int64, spans []span, idx []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, c := range idx {
		a, b := max(spans[c].Start, lo), min(spans[c].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			end = v.a
		}
		total += v.b - end
		end = v.b
	}
	return total
}

// callStat accumulates calls of one span name.
type callStat struct {
	N     int64
	Total int64 // ns
}

// kindAgg accumulates one interaction kind's traced interactions.
type kindAgg struct {
	N     int64
	Dur   int64            // ns, sum of interaction durations
	Self  [numLayers]int64 // ns, sum of per-layer self times
	ckptN int64            // commits that ran a checkpoint
	ckptD int64            // their summed duration
}

// tracer records spans while on. Off, begin costs one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	cur   []span
	stack []int
	id    int64
	open  bool
	kind  kind

	kinds        [numKinds]kindAgg
	calls        map[string]*callStat
	retained     []span
	retainLimit  int
	unattributed int64
}

func newTracer(retainSpans int) *tracer {
	return &tracer{epoch: time.Now(), calls: map[string]*callStat{}, retainLimit: retainSpans}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginInteraction opens the root span of an interaction of kind k.
func (t *tracer) beginInteraction(k kind) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.id++
	t.open, t.kind = true, k
	t.cur = append(t.cur[:0], span{Name: "ui." + kindNames[k], Layer: layerUI, Start: t.now(), Parent: -1, Interaction: t.id})
	t.stack = append(t.stack[:0], 0)
	t.mu.Unlock()
}

// endInteraction closes the root span and folds the interaction's spans
// into the per-kind self times.
func (t *tracer) endInteraction() {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.open {
		return
	}
	t.open = false
	t.cur[0].End = t.now()
	self := selfTimes(t.cur)
	agg := &t.kinds[t.kind]
	agg.N++
	dur := t.cur[0].End - t.cur[0].Start
	agg.Dur += dur
	ckpt := false
	for i, s := range t.cur {
		agg.Self[s.Layer] += self[i]
		if i == 0 {
			continue
		}
		cs := t.calls[s.Name]
		if cs == nil {
			cs = &callStat{}
			t.calls[s.Name] = cs
		}
		cs.N++
		cs.Total += s.End - s.Start
		if s.Name == "wal.truncate" {
			ckpt = true
		}
	}
	if ckpt {
		agg.ckptN++
		agg.ckptD += dur
	}
	if len(t.retained)+len(t.cur) <= t.retainLimit {
		t.retained = append(t.retained, t.cur...)
	}
}

// begin opens a child span of the innermost open span and returns its
// index, or -1 when tracing is off or no interaction is open.
func (t *tracer) begin(l layer, name string) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.open {
		t.unattributed++
		return -1
	}
	i := len(t.cur)
	t.cur = append(t.cur, span{Name: name, Layer: l, Start: t.now(), Parent: t.stack[len(t.stack)-1], Interaction: t.id})
	t.stack = append(t.stack, i)
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.open || i >= len(t.cur) {
		return
	}
	t.cur[i].End = t.now()
	for j := len(t.stack) - 1; j > 0; j-- {
		if t.stack[j] == i {
			t.stack = append(t.stack[:j], t.stack[j+1:]...)
			break
		}
	}
}
