package main

// The system under test, assembled the way cmd/gisd runs it: a file-backed
// geodb with the WAL (checkpoint every 1024 commits, the default 256-page
// pool), Figure 6 plus the population's generated directives, both
// topological constraints, the tail sampler at gisd's defaults, and
// server.New with pipeline depth 1 on loopback TCP. The only additions are
// the probes of probes.go at each layer's public interface.

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/active"
	"repro/internal/builder"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/custlang"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/topo"
	"repro/internal/ui"
	"repro/internal/uikit"
	"repro/internal/workload"
)

const (
	checkpointEvery = 1024 // gisd -checkpoint-every
	poolPages       = 256  // geodb's default pool: 1 MiB of 4 KiB pages
	schemaName      = workload.SchemaName
)

var buildCtx = event.Context{Application: "perfbench_build"}

// buildDatabase writes the network into a new database file. It runs
// before set-up and is not timed: the WAL is off and the pool holds every
// page, so the file is written once, at Close.
func buildDatabase(path string, n *network) error {
	db, err := geodb.Open(geodb.Options{Name: "GEO", Path: path, DisableWAL: true, PoolSize: 1 << 14})
	if err != nil {
		return err
	}
	if err := fillDatabase(db, n); err != nil {
		_ = db.Close()
		return err
	}
	return db.Close()
}

func fillDatabase(db *geodb.DB, n *network) error {
	if err := workload.DefineSchema(db); err != nil {
		return err
	}
	for i := range n.Suppliers {
		oid, err := db.InsertMap(buildCtx, schemaName, "Supplier", map[string]catalog.Value{
			"name": catalog.TextVal(n.Suppliers[i].Name),
			"city": catalog.TextVal("Campinas"),
		})
		if err != nil {
			return err
		}
		n.Suppliers[i].OID = oid
	}
	for zi := range n.Zones {
		if _, err := db.InsertMap(buildCtx, schemaName, "Zone", map[string]catalog.Value{
			"zone_name": catalog.TextVal(fmt.Sprintf("zone-%d", zi)),
			"region":    catalog.GeomVal(n.Zones[zi].Rect.AsPolygon()),
		}); err != nil {
			return err
		}
		for _, pi := range n.ZonePoles[zi] {
			oid, err := db.Insert(buildCtx, schemaName, "Pole", n.values(n.Poles[pi], n.picture(pi)))
			if err != nil {
				return err
			}
			n.Poles[pi].OID = oid
		}
	}
	return nil
}

// system is one open instance of the daemon.
type system struct {
	db     *geodb.DB
	engine *active.Engine
	guard  *topo.Guard
	srv    *server.Server
	addr   string
	served chan error
}

// openSystem reopens the database file and brings the daemon up to
// accepting connections: recovery scan, WAL replay, directive and
// constraint install, listen.
func openSystem(path string, pop population, p *probes) (*system, error) {
	fp, err := storage.OpenFilePager(path)
	if err != nil {
		return nil, err
	}
	lf, err := storage.OpenLogFile(path + ".wal")
	if err != nil {
		_ = fp.Close()
		return nil, err
	}
	db, err := geodb.Open(geodb.Options{
		Name:            "GEO",
		Pager:           pagerProbe{p: p, inner: fp},
		WALFile:         newLogProbe(p, lf),
		CheckpointEvery: checkpointEvery,
	})
	if err != nil {
		_ = fp.Close()
		_ = lf.Close()
		return nil, err
	}
	s := &system{db: db, engine: active.NewEngine(), guard: topo.NewGuard(db)}
	if err := s.install(pop, p); err != nil {
		_ = db.Close()
		return nil, err
	}
	return s, nil
}

func (s *system) install(pop population, p *probes) error {
	db := s.db
	if err := workload.RegisterPoleMethods(db); err != nil {
		return err
	}
	db.Bus().Subscribe(handlerProbe{p: p, engine: s.engine})
	lib, err := workload.StandardLibrary()
	if err != nil {
		return err
	}
	an := &custlang.Analyzer{Cat: db.Catalog(), Lib: lib}
	if _, err := an.Install(s.engine, pop.Directives); err != nil {
		return err
	}
	for _, c := range []topo.Constraint{
		{Name: "pole-in-zone", Schema: schemaName, Class: "Pole",
			With: "Zone", Relation: geom.Inside, Mode: topo.Require},
		{Name: "zones-disjoint", Schema: schemaName, Class: "Zone",
			With: "Zone", Relation: geom.Overlap, Mode: topo.Forbid},
	} {
		if err := s.guard.Install(s.engine, c); err != nil {
			return err
		}
	}
	// gisd's tail sampler defaults: slowest 16, head rate 0.01, at most 64.
	traces := obs.NewTailSampler(obs.TailSamplerOptions{SlowestN: 16, HeadRate: 0.01, MaxTraces: 64})
	tracer := obs.NewTracer()
	tracer.AttachSink(traces)
	s.engine.Tracer().AttachSink(traces)
	db.Tracer().AttachSink(traces)

	logger := obs.NewLogger(os.Stderr, obs.LevelInfo).With("proc", "perfbench")
	srv := server.New(&serverBackend{p: p, inner: &ui.DirectBackend{DB: db, Engine: s.engine}})
	srv.Checkpoint = db.Checkpoint
	srv.Tracer = tracer
	srv.TraceStore = traces
	srv.IdleTimeout = 5 * time.Minute
	srv.PipelineDepth = 1
	srv.Log = logger
	srv.SlowRequest = 250 * time.Millisecond
	srv.Logf = func(format string, args ...any) { logger.Warn(fmt.Sprintf(format, args...)) }
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv, s.addr, s.served = srv, l.Addr().String(), make(chan error, 1)
	go func() { s.served <- srv.Serve(l) }()
	return nil
}

// close drains the server (which checkpoints) and closes the database.
func (s *system) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err := s.srv.Shutdown(ctx)
	cancel()
	if serr := <-s.served; err == nil {
		err = serr
	}
	if cerr := s.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// uiSession is one client-side UI session over its own TCP connection.
type uiSession struct {
	sess *ui.Session
	be   *clientBackend
}

func (u *uiSession) close() { _ = u.be.cli.Close() }

// dial connects a new client to the daemon; its ui.Session and builder
// share the probed backend, as core.RemoteSession wires them.
func (s *system) dial(p *probes, lib *uikit.Library, ctx event.Context) (*uiSession, error) {
	sp := p.tr.begin(layerWire, "wire.dial")
	conn, err := net.Dial("tcp", s.addr)
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	cli := client.NewClientOptions(countConn{Conn: conn, p: p}, client.Options{})
	be := &clientBackend{p: p, cli: cli}
	sess := ui.NewSession(be, builder.New(lib, be), ctx)
	sess.SetTracer(cli.Tracer())
	return &uiSession{sess: sess, be: be}, nil
}

// openSession is the session-open interaction: dial, Connect, OpenSchema.
func (s *system) openSession(p *probes, lib *uikit.Library, ctx event.Context) (*uiSession, *uikit.Widget, error) {
	u, err := s.dial(p, lib, ctx)
	if err != nil {
		return nil, nil, err
	}
	if err := u.sess.Connect(); err != nil {
		u.close()
		return nil, nil, err
	}
	win, err := u.sess.OpenSchema(schemaName)
	if err != nil {
		u.close()
		return nil, nil, err
	}
	return u, win, nil
}
