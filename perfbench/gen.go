package main

// Input generation. Every input the program sees is made here from the
// seed: the phone network (suppliers, zones, poles and their geometry), the
// 64-context population and its directives, and each session's script.
// The benchmark keeps its own copy of the geometry and attribute values so
// the output checks compare the program against the inputs, not against
// the program.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/workload"
)

const (
	zoneSize = 1000.0
	// margin keeps generated and moved poles strictly inside their zone, so
	// the pole-in-zone constraint never vetoes an edit.
	margin = 1.0
)

var materials = []string{"wood", "concrete", "steel", "fiberglass"}

// netSpec sizes a generated network.
type netSpec struct {
	ZonesPerSide int
	PolesPerZone int
	Suppliers    int
	PictureBytes int
}

type supplier struct {
	OID  catalog.OID
	Name string
}

type zone struct {
	Rect geom.Rect
}

// pole is the benchmark's copy of one Pole instance.
type pole struct {
	OID      catalog.OID
	Zone     int
	X, Y     float64
	Type     int64
	Material string
	Diameter float64
	Height   float64
	Supplier int
	Historic string
}

// network is the generated phone_net content, in insertion order.
type network struct {
	Spec      netSpec
	Suppliers []supplier
	Zones     []zone
	Poles     []pole
	// ZonePoles lists pole indexes per zone.
	ZonePoles [][]int
	Seed      int64
}

func genNetwork(seed int64, s netSpec) *network {
	rng := rand.New(rand.NewSource(seed))
	n := &network{Spec: s, Seed: seed}
	for i := 0; i < s.Suppliers; i++ {
		n.Suppliers = append(n.Suppliers, supplier{Name: fmt.Sprintf("Supplier-%02d", i)})
	}
	for zy := 0; zy < s.ZonesPerSide; zy++ {
		for zx := 0; zx < s.ZonesPerSide; zx++ {
			r := geom.R(float64(zx)*zoneSize, float64(zy)*zoneSize,
				float64(zx+1)*zoneSize, float64(zy+1)*zoneSize)
			zi := len(n.Zones)
			n.Zones = append(n.Zones, zone{Rect: r})
			var idx []int
			for p := 0; p < s.PolesPerZone; p++ {
				x, y := insideZone(rng, r)
				idx = append(idx, len(n.Poles))
				n.Poles = append(n.Poles, pole{
					Zone:     zi,
					X:        x,
					Y:        y,
					Type:     int64(rng.Intn(4)),
					Material: materials[rng.Intn(len(materials))],
					Diameter: 0.2 + rng.Float64()*0.3,
					Height:   8 + rng.Float64()*4,
					Supplier: rng.Intn(s.Suppliers),
					Historic: fmt.Sprintf("installed 19%02d", 80+rng.Intn(17)),
				})
			}
			n.ZonePoles = append(n.ZonePoles, idx)
		}
	}
	return n
}

// insideZone draws a location inside r. Coordinates are rounded to the
// micro-unit: geometries cross the wire as WKT with six decimals, and an
// edited location must read back exactly as it was sent.
func insideZone(rng *rand.Rand, r geom.Rect) (float64, float64) {
	x := r.Min.X + margin + rng.Float64()*(zoneSize-2*margin)
	y := r.Min.Y + margin + rng.Float64()*(zoneSize-2*margin)
	return math.Round(x*1e6) / 1e6, math.Round(y*1e6) / 1e6
}

// picture is the deterministic bitmap of pole i.
func (n *network) picture(i int) []byte {
	if n.Spec.PictureBytes == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(n.Seed*7919 + int64(i)))
	b := make([]byte, n.Spec.PictureBytes)
	rng.Read(b)
	return b
}

// bounds is the world rectangle covering every zone.
func (n *network) bounds() geom.Rect {
	side := float64(n.Spec.ZonesPerSide) * zoneSize
	return geom.R(0, 0, side, side)
}

// values returns pole p's attribute values in the Pole class's attribute
// order (Figure 5): type, composition, supplier, location, picture,
// historic. picture is nil when the network has none.
func (n *network) values(p pole, picture []byte) []catalog.Value {
	pic := catalog.Value{}
	if picture != nil {
		pic = catalog.BitmapVal(picture)
	}
	return []catalog.Value{
		catalog.IntVal(p.Type),
		catalog.TupleVal(catalog.TextVal(p.Material), catalog.FloatVal(p.Diameter), catalog.FloatVal(p.Height)),
		catalog.RefVal(n.Suppliers[p.Supplier].OID),
		catalog.GeomVal(geom.Pt(p.X, p.Y)),
		pic,
		catalog.TextVal(p.Historic),
	}
}

// visible lists, in OID order, the poles whose location lies in the
// viewport, by brute force over the generated geometry.
func (n *network) visible(vp geom.Rect) []catalog.OID {
	var out []catalog.OID
	for _, p := range n.Poles {
		if p.X >= vp.Min.X && p.X <= vp.Max.X && p.Y >= vp.Min.Y && p.Y <= vp.Max.Y {
			out = append(out, p.OID)
		}
	}
	return out
}

// population is the browse workload's 64 interaction contexts: juliano's
// pole_manager (Figure 6), 31 contexts with generated directives and 32
// generic ones that no rule customizes.
type population struct {
	Contexts []event.Context
	// Customized holds the users whose context has a generated directive.
	Customized map[string]bool
	// Directives is the customization-language source installed at set-up:
	// Figure 6 plus one generated directive per customized context.
	Directives string
}

const (
	populationSize  = 64
	customizedShare = 31
)

var juliano = event.Context{User: "juliano", Application: "pole_manager"}

func genPopulation() population {
	var b strings.Builder
	b.WriteString(workload.Figure6Source)
	pop := population{Contexts: []event.Context{juliano}, Customized: map[string]bool{}}
	for i, c := range workload.Contexts(populationSize - 1) {
		if i < customizedShare {
			b.WriteString("\n")
			b.WriteString(workload.DirectiveFor(c, i))
			pop.Customized[c.User] = true
		}
		pop.Contexts = append(pop.Contexts, c)
	}
	pop.Directives = b.String()
	return pop
}

// view is what instance windows opened in ctx must show.
func (p population) view(ctx event.Context) view {
	switch {
	case ctx.User == juliano.User:
		return viewFigure7
	case p.Customized[ctx.User]:
		return viewDirective
	}
	return viewGeneric
}
