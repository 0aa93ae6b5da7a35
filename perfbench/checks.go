package main

// Output checks. Each compares what the program showed or stored against
// the benchmark's own inputs; any mismatch makes the run incorrect.

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/uikit"
)

// checker collects check outcomes from every slot.
type checker struct {
	mu       sync.Mutex
	checks   int64
	failures int64
	notes    []string
}

const maxNotes = 8

func (c *checker) expect(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks++
	if !ok {
		c.failures++
		c.addNote(format, args...)
	}
}

// note records a message without counting a check (failed interactions).
func (c *checker) note(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addNote(format, args...)
}

func (c *checker) addNote(format string, args ...any) {
	if len(c.notes) < maxNotes {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// attrWidget returns the widget showing attribute attr in an instance
// window: the default text field or the customization's widget.
func attrWidget(win *uikit.Widget, attr string) *uikit.Widget {
	panel := win.Find("attr:" + attr)
	if panel == nil || len(panel.Children) != 1 {
		return nil
	}
	return panel.Children[0]
}

func prop(w *uikit.Widget, key string) string {
	if w == nil {
		return ""
	}
	return w.Prop(key)
}

// view is what an instance window of a context must show.
type view int

const (
	viewGeneric   view = iota // every attribute in a text field
	viewFigure7               // juliano: Figure 7
	viewDirective             // a generated directive: history only is fixed
)

// checkInstance checks an instance window against the pole it shows. Every
// window shows the pole's history; a generic one shows its location;
// juliano's (Figure 7) show the composition in a composed_text widget, the
// supplier's name and no location.
func (b *bench) checkInstance(win *uikit.Widget, p pole, v view) {
	hist := prop(attrWidget(win, "pole_historic"), "value")
	b.chk.expect(hist == p.Historic, "pole %d: history shown %q, want %q", p.OID, hist, p.Historic)
	switch v {
	case viewGeneric:
		loc := prop(attrWidget(win, "pole_location"), "value")
		want := geom.Pt(p.X, p.Y).WKT()
		b.chk.expect(loc == want, "pole %d: location shown %q, want %q", p.OID, loc, want)
	case viewFigure7:
		comp := attrWidget(win, "pole_composition")
		want := catalog.TextVal(p.Material).String() + " " +
			catalog.FloatVal(p.Diameter).String() + " " + catalog.FloatVal(p.Height).String()
		b.chk.expect(prop(comp, "composed") == "true" && prop(comp, "value") == want,
			"pole %d: composition shown %q (composed=%q), want composed_text %q",
			p.OID, prop(comp, "value"), prop(comp, "composed"), want)
		sup := prop(attrWidget(win, "pole_supplier"), "value")
		wantSup := b.net.Suppliers[p.Supplier].Name
		b.chk.expect(sup == wantSup, "pole %d: supplier shown %q, want %q", p.OID, sup, wantSup)
		b.chk.expect(win.Find("attr:pole_location") == nil,
			"pole %d: location shown in a Figure 7 window", p.OID)
	}
}

// checkAutoOpen checks R1: juliano's schema open auto-opened the Pole class
// window with every pole on its map.
func (b *bench) checkAutoOpen(u *uiSession) {
	win, err := u.sess.Window("classset:Pole")
	b.chk.expect(err == nil && len(shownOIDs(win)) == len(b.cur),
		"juliano: Pole class window not auto-opened with %d poles (%v)", len(b.cur), err)
}

func shownOIDs(win *uikit.Widget) []catalog.OID {
	if win == nil {
		return nil
	}
	area := win.Find("map")
	if area == nil {
		return nil
	}
	out := make([]catalog.OID, 0, len(area.Shapes))
	for _, s := range area.Shapes {
		out = append(out, catalog.OID(s.OID))
	}
	return out
}

// checkZoom compares a zoomed class window's instances with a brute-force
// intersection of the viewport and the generated geometry, and returns
// them.
func (b *bench) checkZoom(win *uikit.Widget, vp geom.Rect) []catalog.OID {
	got := shownOIDs(win)
	slices.Sort(got)
	want := b.net.visible(vp)
	b.chk.expect(slices.Equal(got, want),
		"zoom %v: window shows %d poles, brute force finds %d", vp, len(got), len(want))
	return got
}

// checkStored compares every edited pole's stored location and history
// with the last acknowledged edit, reading through get.
func (b *bench) checkStored(where string, get func(catalog.OID) (geodb.Instance, error)) {
	for i, p := range b.cur {
		if !b.edited[i] {
			continue
		}
		in, err := get(p.OID)
		if err != nil {
			b.chk.expect(false, "%s: pole %d: %v", where, p.OID, err)
			continue
		}
		loc, _ := in.Get("pole_location")
		hist, _ := in.Get("pole_historic")
		pt, isPt := loc.Geom.(geom.Point)
		b.chk.expect(isPt && pt.X == p.X && pt.Y == p.Y && hist.Text == p.Historic,
			"%s: pole %d reads back %v %q, want (%v %v) %q", where, p.OID, loc.Geom, hist.Text, p.X, p.Y, p.Historic)
	}
}

// checkEdits reads every acknowledged edit back over the wire, then again
// from the file after the daemon is closed and the database reopened.
func (b *bench) checkEdits(path string) error {
	u, err := b.sys.dial(b.p, nil, event.Context{User: "auditor", Application: "perfbench"})
	if err != nil {
		return err
	}
	b.checkStored("over the wire", func(oid catalog.OID) (geodb.Instance, error) {
		in, _, err := u.be.GetValue(event.Context{User: "auditor"}, oid)
		return in, err
	})
	u.close()
	if err := b.sys.close(); err != nil {
		return err
	}
	b.sys = nil
	db, err := geodb.Open(geodb.Options{Name: "GEO", Path: path, CheckpointEvery: checkpointEvery})
	if err != nil {
		return err
	}
	b.checkStored("after reopen", func(oid catalog.OID) (geodb.Instance, error) {
		return db.GetValue(event.Context{}, oid)
	})
	return db.Close()
}

func (b *bench) editCount() int {
	n := 0
	for _, e := range b.edited {
		if e {
			n++
		}
	}
	return n
}
