package main

// Probes: thin wrappers around each layer's public interface. They always
// count (one atomic add a call) and time only while the tracer is on.
//
//   - clientBackend: ui.Backend under each client-side ui.Session and its
//     builder, over client.Client (layer wire);
//   - countConn: the net.Conn under client.NewClientOptions (wire bytes);
//   - serverBackend: ui.Backend handed to server.New, over the
//     ui.DirectBackend (layer geodb);
//   - handlerProbe: the event.Handler subscribed to db.Bus() in place of
//     the engine (layer active);
//   - pagerProbe and logProbe: the storage.Pager and storage.LogFile
//     injected through geodb.Options (layers pager and wal).

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/active"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/spec"
	"repro/internal/storage"
	"repro/internal/ui"
)

// counters are the probes' running totals; a phase reports their deltas.
type counters struct {
	roundTrips atomic.Int64 // client-side backend calls
	wireBytes  atomic.Int64 // client socket bytes, both directions
	instances  atomic.Int64 // instances the server-side backend materialized
	events     atomic.Int64 // bus events handed to the engine

	pagerReads, pagerWrites, pagerSyncs atomic.Int64

	walBytes, walSyncs, walTruncates atomic.Int64
	walImages, walRepeats            atomic.Int64 // page images; images of a page already logged in the same group
}

// countSnapshot is a plain copy of counters.
type countSnapshot struct {
	RoundTrips, WireBytes, Instances, Events int64
	PagerReads, PagerWrites, PagerSyncs      int64
	WALBytes, WALSyncs, WALTruncates         int64
	WALImages, WALRepeats                    int64
}

func (c *counters) snapshot() countSnapshot {
	return countSnapshot{
		RoundTrips: c.roundTrips.Load(), WireBytes: c.wireBytes.Load(),
		Instances: c.instances.Load(), Events: c.events.Load(),
		PagerReads: c.pagerReads.Load(), PagerWrites: c.pagerWrites.Load(), PagerSyncs: c.pagerSyncs.Load(),
		WALBytes: c.walBytes.Load(), WALSyncs: c.walSyncs.Load(), WALTruncates: c.walTruncates.Load(),
		WALImages: c.walImages.Load(), WALRepeats: c.walRepeats.Load(),
	}
}

func (s countSnapshot) sub(o countSnapshot) countSnapshot {
	return countSnapshot{
		RoundTrips: s.RoundTrips - o.RoundTrips, WireBytes: s.WireBytes - o.WireBytes,
		Instances: s.Instances - o.Instances, Events: s.Events - o.Events,
		PagerReads: s.PagerReads - o.PagerReads, PagerWrites: s.PagerWrites - o.PagerWrites,
		PagerSyncs: s.PagerSyncs - o.PagerSyncs,
		WALBytes:   s.WALBytes - o.WALBytes, WALSyncs: s.WALSyncs - o.WALSyncs,
		WALTruncates: s.WALTruncates - o.WALTruncates,
		WALImages:    s.WALImages - o.WALImages, WALRepeats: s.WALRepeats - o.WALRepeats,
	}
}

// probes bundles the tracer and counters every wrapper reports to.
type probes struct {
	tr *tracer
	c  counters
}

// clientBackend is the client side of one UI session.
type clientBackend struct {
	p   *probes
	cli *client.Client
}

func (b *clientBackend) call(name string) int {
	b.p.c.roundTrips.Add(1)
	return b.p.tr.begin(layerWire, name)
}

func (b *clientBackend) Connect(ctx event.Context) error {
	defer b.p.tr.end(b.call("wire.connect"))
	return b.cli.Connect(ctx)
}

func (b *clientBackend) GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error) {
	defer b.p.tr.end(b.call("wire.get_schema"))
	return b.cli.GetSchema(ctx, schema)
}

func (b *clientBackend) GetClass(ctx event.Context, schema, class string) (ui.ClassData, *spec.Customization, error) {
	defer b.p.tr.end(b.call("wire.get_class"))
	return b.cli.GetClass(ctx, schema, class)
}

func (b *clientBackend) GetClassWindowed(ctx event.Context, schema, class string, window geom.Rect) (ui.ClassData, *spec.Customization, error) {
	defer b.p.tr.end(b.call("wire.get_class_windowed"))
	return b.cli.GetClassWindowed(ctx, schema, class, window)
}

func (b *clientBackend) GetValue(ctx event.Context, oid catalog.OID) (geodb.Instance, *spec.Customization, error) {
	defer b.p.tr.end(b.call("wire.get_value"))
	return b.cli.GetValue(ctx, oid)
}

func (b *clientBackend) SelectWhere(ctx event.Context, schema, class string, filters []geodb.Filter) ([]geodb.Instance, error) {
	defer b.p.tr.end(b.call("wire.select_where"))
	return b.cli.SelectWhere(ctx, schema, class, filters)
}

func (b *clientBackend) CallMethod(oid catalog.OID, method string, args ...catalog.Value) (catalog.Value, error) {
	defer b.p.tr.end(b.call("wire.call_method"))
	return b.cli.CallMethod(oid, method, args...)
}

func (b *clientBackend) CommitTxn(ctx event.Context, ops []ui.TxnOp) ([]catalog.OID, error) {
	defer b.p.tr.end(b.call("wire.txn"))
	return b.cli.CommitTxn(ctx, ops)
}

// countConn counts the bytes a client moves over its socket.
type countConn struct {
	net.Conn
	p *probes
}

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.p.c.wireBytes.Add(int64(n))
	return n, err
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.p.c.wireBytes.Add(int64(n))
	return n, err
}

// serverBackend is the backend the server answers requests from.
type serverBackend struct {
	p     *probes
	inner *ui.DirectBackend
}

func (b *serverBackend) begin(name string) int { return b.p.tr.begin(layerGeodb, name) }

func (b *serverBackend) Connect(ctx event.Context) error {
	defer b.p.tr.end(b.begin("geodb.connect"))
	return b.inner.Connect(ctx)
}

func (b *serverBackend) GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error) {
	defer b.p.tr.end(b.begin("geodb.get_schema"))
	return b.inner.GetSchema(ctx, schema)
}

func (b *serverBackend) GetClass(ctx event.Context, schema, class string) (ui.ClassData, *spec.Customization, error) {
	defer b.p.tr.end(b.begin("geodb.get_class"))
	d, c, err := b.inner.GetClass(ctx, schema, class)
	b.p.c.instances.Add(int64(len(d.Instances)))
	return d, c, err
}

func (b *serverBackend) GetClassWindowed(ctx event.Context, schema, class string, window geom.Rect) (ui.ClassData, *spec.Customization, error) {
	defer b.p.tr.end(b.begin("geodb.get_class_windowed"))
	d, c, err := b.inner.GetClassWindowed(ctx, schema, class, window)
	b.p.c.instances.Add(int64(len(d.Instances)))
	return d, c, err
}

func (b *serverBackend) GetValue(ctx event.Context, oid catalog.OID) (geodb.Instance, *spec.Customization, error) {
	defer b.p.tr.end(b.begin("geodb.get_value"))
	in, c, err := b.inner.GetValue(ctx, oid)
	if err == nil {
		b.p.c.instances.Add(1)
	}
	return in, c, err
}

func (b *serverBackend) SelectWhere(ctx event.Context, schema, class string, filters []geodb.Filter) ([]geodb.Instance, error) {
	defer b.p.tr.end(b.begin("geodb.select_where"))
	ins, err := b.inner.SelectWhere(ctx, schema, class, filters)
	b.p.c.instances.Add(int64(len(ins)))
	return ins, err
}

func (b *serverBackend) CallMethod(oid catalog.OID, method string, args ...catalog.Value) (catalog.Value, error) {
	defer b.p.tr.end(b.begin("geodb.call_method"))
	return b.inner.CallMethod(oid, method, args...)
}

func (b *serverBackend) CommitTxn(ctx event.Context, ops []ui.TxnOp) ([]catalog.OID, error) {
	defer b.p.tr.end(b.begin("geodb.txn"))
	return b.inner.CommitTxn(ctx, ops)
}

// handlerProbe is subscribed to the database bus in place of the engine.
type handlerProbe struct {
	p      *probes
	engine *active.Engine
}

func (h handlerProbe) HandleEvent(e event.Event) error {
	h.p.c.events.Add(1)
	defer h.p.tr.end(h.p.tr.begin(layerActive, "active.handle"))
	return h.engine.HandleEvent(e)
}

// pagerProbe wraps the page file.
type pagerProbe struct {
	p     *probes
	inner storage.Pager
}

func (g pagerProbe) ReadPage(id storage.PageID, dst *storage.Page) error {
	g.p.c.pagerReads.Add(1)
	defer g.p.tr.end(g.p.tr.begin(layerPager, "pager.read"))
	return g.inner.ReadPage(id, dst)
}

func (g pagerProbe) WritePage(id storage.PageID, src *storage.Page) error {
	g.p.c.pagerWrites.Add(1)
	defer g.p.tr.end(g.p.tr.begin(layerPager, "pager.write"))
	return g.inner.WritePage(id, src)
}

func (g pagerProbe) Allocate() (storage.PageID, error) {
	defer g.p.tr.end(g.p.tr.begin(layerPager, "pager.allocate"))
	return g.inner.Allocate()
}

func (g pagerProbe) NumPages() uint32 { return g.inner.NumPages() }

func (g pagerProbe) Sync() error {
	g.p.c.pagerSyncs.Add(1)
	defer g.p.tr.end(g.p.tr.begin(layerPager, "pager.sync"))
	return g.inner.Sync()
}

func (g pagerProbe) Close() error { return g.inner.Close() }

// logProbe wraps the WAL's log file. Besides counting and timing, it
// decodes the record headers the WAL writes (framing documented in
// internal/storage/wal.go) to measure how many page images repeat a page
// the same commit group already logged.
type logProbe struct {
	p     *probes
	inner storage.LogFile

	mu    sync.Mutex
	group map[uint32]bool
}

func newLogProbe(p *probes, inner storage.LogFile) *logProbe {
	return &logProbe{p: p, inner: inner, group: map[uint32]bool{}}
}

// WAL record framing: CRC (4), payload length (4), LSN (8), type (1),
// payload; a page image's payload starts with its 4-byte page id.
const (
	walHeader    = 17
	walPageImage = 1
)

func (l *logProbe) WriteAt(b []byte, off int64) (int, error) {
	l.p.c.walBytes.Add(int64(len(b)))
	l.scan(b)
	defer l.p.tr.end(l.p.tr.begin(layerWAL, "wal.write"))
	return l.inner.WriteAt(b, off)
}

// scan counts the page images in one write and those whose page the
// current group already logged; any other record type closes the group.
func (l *logProbe) scan(b []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(b) >= walHeader {
		n := int(binary.LittleEndian.Uint32(b[4:8]))
		if b[16] == walPageImage && len(b) >= walHeader+4 {
			id := binary.LittleEndian.Uint32(b[walHeader : walHeader+4])
			l.p.c.walImages.Add(1)
			if l.group[id] {
				l.p.c.walRepeats.Add(1)
			}
			l.group[id] = true
		} else {
			clear(l.group)
		}
		if walHeader+n > len(b) {
			return
		}
		b = b[walHeader+n:]
	}
}

func (l *logProbe) ReadAt(b []byte, off int64) (int, error) { return l.inner.ReadAt(b, off) }

func (l *logProbe) Truncate(size int64) error {
	l.p.c.walTruncates.Add(1)
	defer l.p.tr.end(l.p.tr.begin(layerWAL, "wal.truncate"))
	return l.inner.Truncate(size)
}

func (l *logProbe) Sync() error {
	l.p.c.walSyncs.Add(1)
	defer l.p.tr.end(l.p.tr.begin(layerWAL, "wal.sync"))
	return l.inner.Sync()
}

func (l *logProbe) Size() (int64, error) { return l.inner.Size() }

func (l *logProbe) Close() error { return l.inner.Close() }
