package main

import (
	"slices"
	"testing"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 15, End: 25, Parent: 1},  // nested in a
		{Name: "d", Start: 90, End: 120, Parent: 0}, // runs past root: clipped
		{Name: "e", Start: 35, End: 38, Parent: 1},  // nested in a, inside b too
	}
	// root: children cover [10,60) and [90,100); a: c and e cover 13.
	want := []int64{40, 17, 30, 10, 30, 3}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestLayerSelfTimesSumToInteraction(t *testing.T) {
	tr := newTracer(100)
	tr.on.Store(true)
	if tr.begin(layerPager, "pager.read") != -1 {
		t.Fatal("a span outside any interaction was attributed")
	}
	tr.beginInteraction(kindOpenInstance)
	w := tr.begin(layerWire, "wire.get_value")
	g := tr.begin(layerGeodb, "geodb.get_value")
	a := tr.begin(layerActive, "active.handle")
	tr.end(tr.begin(layerPager, "pager.read"))
	tr.end(a)
	tr.end(tr.begin(layerActive, "active.handle"))
	tr.end(g)
	tr.end(w)
	tr.endInteraction()

	agg := tr.kinds[kindOpenInstance]
	var sum int64
	for _, v := range agg.Self {
		sum += v
	}
	if agg.N != 1 || sum != agg.Dur {
		t.Fatalf("n=%d: layer self times sum to %d ns, interaction took %d ns", agg.N, sum, agg.Dur)
	}
	if tr.unattributed != 1 || tr.calls["active.handle"].N != 2 || len(tr.retained) != 6 {
		t.Fatalf("unattributed=%d handle calls=%d retained=%d", tr.unattributed, tr.calls["active.handle"].N, len(tr.retained))
	}
	for _, s := range tr.retained[1:] {
		if s.Parent < 0 || tr.retained[s.Parent].Start > s.Start || tr.retained[s.Parent].End < s.End {
			t.Errorf("span %s is not inside its parent", s.Name)
		}
	}
}
