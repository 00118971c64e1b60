// Package oracle is the benchmark's reference for what every subscription
// must produce. It draws the §4 query-template parameters itself, renders
// the WXQuery text the program receives, generates the photon values the
// program is fed, and evaluates each query directly over those values with
// scaled-integer arithmetic.
//
// It shares no code with the program: it imports only the standard
// library, parses no WXQuery, and never touches the program's element,
// predicate, decimal or operator types. Values are kept as integers in the
// unit of their last printed digit (tenths of a degree, hundredths of a keV
// or of a time unit), so every comparison and every sum is exact.
package oracle

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Photon is one source item. RA and Dec are in tenths of a degree, En and
// T (det_time) in hundredths.
type Photon struct {
	RA, Dec int64
	DX, DY  int64
	PHC     int64
	En      int64
	T       int64
}

// Gen produces a photon feed over the vela region the templates target:
// ra 100–160°, dec −60–−30°, energy 0.10–3.00 keV on a truncated
// exponential spectrum, det_time strictly increasing by about 0.5 per item.
type Gen struct {
	rnd *rand.Rand
	t   int64
}

// NewGen returns a deterministic generator; equal seeds give equal feeds.
func NewGen(seed int64) *Gen { return &Gen{rnd: rand.New(rand.NewSource(seed))} }

// Next produces the next photon.
func (g *Gen) Next() Photon {
	g.t += 1 + int64(g.rnd.ExpFloat64()*50)
	p := Photon{
		RA:  1000 + g.rnd.Int63n(601),
		Dec: -600 + g.rnd.Int63n(301),
		DX:  g.rnd.Int63n(512),
		DY:  g.rnd.Int63n(512),
		PHC: 1 + g.rnd.Int63n(254),
		T:   g.t,
	}
	en := 10 + int64(g.rnd.ExpFloat64()*120)
	if en > 300 {
		en = 10 + g.rnd.Int63n(291)
	}
	p.En = en
	return p
}

// Generate returns n photons.
func (g *Gen) Generate(n int) []Photon {
	out := make([]Photon, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Fixed renders a scaled integer with the given number of decimal places,
// the way the feed prints it.
func Fixed(v int64, places int) string {
	neg := v < 0
	if neg {
		v = -v
	}
	s := strconv.FormatInt(v, 10)
	for len(s) <= places {
		s = "0" + s
	}
	if places > 0 {
		s = s[:len(s)-places] + "." + s[len(s)-places:]
	}
	if neg {
		s = "-" + s
	}
	return s
}

// Field returns the printed value of one leaf of the photon item, by its
// item-relative path.
func (p Photon) Field(path string) string {
	switch path {
	case "coord/cel/ra":
		return Fixed(p.RA, 1)
	case "coord/cel/dec":
		return Fixed(p.Dec, 1)
	case "coord/det/dx":
		return strconv.FormatInt(p.DX, 10)
	case "coord/det/dy":
		return strconv.FormatInt(p.DY, 10)
	case "phc":
		return strconv.FormatInt(p.PHC, 10)
	case "en":
		return Fixed(p.En, 2)
	case "det_time":
		return Fixed(p.T, 2)
	}
	panic("oracle: unknown photon path " + path)
}

// Doc renders photons as one stream document, the input of a FEED.
func Doc(ps []Photon) string {
	var b strings.Builder
	b.WriteString("<photons>\n")
	for _, p := range ps {
		fmt.Fprintf(&b, "<photon><coord><cel><ra>%s</ra><dec>%s</dec></cel><det><dx>%d</dx><dy>%d</dy></det></coord><phc>%d</phc><en>%s</en><det_time>%s</det_time></photon>\n",
			Fixed(p.RA, 1), Fixed(p.Dec, 1), p.DX, p.DY, p.PHC, Fixed(p.En, 2), Fixed(p.T, 2))
	}
	b.WriteString("</photons>\n")
	return b.String()
}

// Kind is a §4 query template family.
type Kind int

// Template families.
const (
	Selection Kind = iota
	Projection
	Aggregation
)

func (k Kind) String() string {
	return [...]string{"selection", "projection", "aggregation"}[k]
}

// Query is one drawn template instance. Box bounds are inclusive, in
// tenths of a degree; EnMin is in hundredths of a keV, negative for "no
// energy predicate"; Size and Step are the det_time window ∆ and µ in
// hundredths.
type Query struct {
	Stream string
	Kind   Kind
	RALo   int64
	RAHi   int64
	DecLo  int64
	DecHi  int64
	EnMin  int64
	Proj   []string
	Size   int64
	Step   int64
	Op     string
}

// The §4 value sets. They are small and containment-friendly (wider boxes
// contain narrower ones, projections form subset chains), so a population
// drawn from them overlaps, which is what makes sharing possible.
var (
	raLo     = []int64{1100, 1200}
	raWidth  = []int64{180, 280}
	decLo    = []int64{-500, -490}
	decWidth = []int64{90, 120}
	enMin    = []int64{-1, -1, 130}
	projs    = [][]string{
		{"coord/cel/ra", "coord/cel/dec", "phc", "en", "det_time"},
		{"coord/cel/ra", "coord/cel/dec", "en", "det_time"},
	}
	winSize  = []int64{2000, 4000, 8000}
	winStep  = []int64{1000, 2000, 4000}
	aggOps   = []string{"avg", "avg", "sum", "count", "max", "min"}
	aggBoxes = [][4]int64{{1200, 1380, -490, -400}, {1100, 1380, -500, -380}}
	// weights orders selection : projection : aggregation.
	weights = [3]int{5, 2, 3}
)

func pick(rnd *rand.Rand, vs []int64) int64 { return vs[rnd.Intn(len(vs))] }

// drawKind draws the constants of one query of the given family.
func drawKind(rnd *rand.Rand, stream string, k Kind) Query {
	q := Query{Stream: stream, Kind: k, EnMin: -1}
	switch k {
	case Selection:
		q.RALo = pick(rnd, raLo)
		q.RAHi = q.RALo + pick(rnd, raWidth)
		q.DecLo = pick(rnd, decLo)
		q.DecHi = q.DecLo + pick(rnd, decWidth)
		q.EnMin = pick(rnd, enMin)
		q.Proj = projs[rnd.Intn(len(projs))]
	case Projection:
		q.Proj = projs[rnd.Intn(len(projs))]
	case Aggregation:
		box := aggBoxes[rnd.Intn(len(aggBoxes))]
		q.RALo, q.RAHi, q.DecLo, q.DecHi = box[0], box[1], box[2], box[3]
		q.Size = pick(rnd, winSize)
		q.Step = pick(rnd, winStep)
		if q.Step > q.Size {
			q.Step = q.Size
		}
		q.Op = aggOps[rnd.Intn(len(aggOps))]
	}
	return q
}

// DrawPopulation draws n queries, spread round-robin over the given
// streams, whose template families follow the 5 : 2 : 3 weights exactly
// (rounded) in a shuffled order. Fixing the family counts keeps the
// population's make-up, and with it the work per item, the same from seed
// to seed; only the constants vary.
func DrawPopulation(rnd *rand.Rand, streams []string, n int) []Query {
	total := weights[0] + weights[1] + weights[2]
	kinds := make([]Kind, 0, n)
	nSel := (n*weights[0] + total/2) / total
	nProj := (n*weights[1] + total/2) / total
	for i := 0; i < n; i++ {
		switch {
		case i < nSel:
			kinds = append(kinds, Selection)
		case i < nSel+nProj:
			kinds = append(kinds, Projection)
		default:
			kinds = append(kinds, Aggregation)
		}
	}
	rnd.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	out := make([]Query, n)
	for i, k := range kinds {
		out[i] = drawKind(rnd, streams[i%len(streams)], k)
	}
	return out
}

// Windowed reports whether the query keeps window state across items.
func (q Query) Windowed() bool { return q.Kind == Aggregation }

// Text renders the query as WXQuery.
func (q Query) Text() string {
	var outs []string
	for _, p := range q.Proj {
		outs = append(outs, fmt.Sprintf("{ $p/%s }", p))
	}
	switch q.Kind {
	case Selection:
		conds := []string{
			"$p/coord/cel/ra >= " + Fixed(q.RALo, 1),
			"$p/coord/cel/ra <= " + Fixed(q.RAHi, 1),
			"$p/coord/cel/dec >= " + Fixed(q.DecLo, 1),
			"$p/coord/cel/dec <= " + Fixed(q.DecHi, 1),
		}
		if q.EnMin >= 0 {
			conds = append(conds, "$p/en >= "+Fixed(q.EnMin, 2))
		}
		return fmt.Sprintf("<photons>\n{ for $p in stream(%q)/photons/photon\n  where %s\n  return <sel> %s </sel> }\n</photons>\n",
			q.Stream, strings.Join(conds, " and "), strings.Join(outs, " "))
	case Projection:
		return fmt.Sprintf("<photons>\n{ for $p in stream(%q)/photons/photon\n  return <proj> %s </proj> }\n</photons>\n",
			q.Stream, strings.Join(outs, " "))
	}
	return fmt.Sprintf("<photons>\n{ for $w in stream(%q)/photons/photon\n  [coord/cel/ra >= %s and coord/cel/ra <= %s\n   and coord/cel/dec >= %s and coord/cel/dec <= %s]\n  |det_time diff %d step %d|\n  let $a := %s($w/en)\n  return <agg_en> { $a } </agg_en> }\n</photons>\n",
		q.Stream, Fixed(q.RALo, 1), Fixed(q.RAHi, 1), Fixed(q.DecLo, 1), Fixed(q.DecHi, 1),
		q.Size/100, q.Step/100, q.Op)
}

// inBox reports whether p passes the query's sky-box predicate.
func (q Query) inBox(p Photon) bool {
	return p.RA >= q.RALo && p.RA <= q.RAHi && p.Dec >= q.DecLo && p.Dec <= q.DecHi
}

// Window is one emitted aggregate window: K is its index (it covers
// [K·µ, K·µ+∆) on det_time), N the number of items in it, and Sum, Min and
// Max the energy aggregates in hundredths.
type Window struct {
	K             int64
	N             int64
	Sum, Min, Max int64
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// Windows evaluates an aggregation query's data window over ps. Window k
// covers [kµ, kµ+∆) on det_time and holds the selected items in that
// range. It is emitted, in window order, once a later selected item
// reaches kµ+∆; windows still open at the end of the stream are not
// emitted, and a window no item fell into does not exist.
func (q Query) Windows(ps []Photon) []Window {
	open := map[int64]*Window{}
	var out []Window
	for _, p := range ps {
		if !q.inBox(p) {
			continue
		}
		var closing []int64
		for k := range open {
			if k*q.Step+q.Size <= p.T {
				closing = append(closing, k)
			}
		}
		sortInts(closing)
		for _, k := range closing {
			out = append(out, *open[k])
			delete(open, k)
		}
		for k := floorDiv(p.T-q.Size, q.Step) + 1; k <= floorDiv(p.T, q.Step); k++ {
			w := open[k]
			if w == nil {
				w = &Window{K: k, Min: p.En, Max: p.En}
				open[k] = w
			}
			w.N++
			w.Sum += p.En
			if p.En < w.Min {
				w.Min = p.En
			}
			if p.En > w.Max {
				w.Max = p.En
			}
		}
	}
	return out
}

func sortInts(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Expect returns what the query produces over ps, one entry per result
// item in order. Selection and projection items are their canonical XML
// (as Canonical renders the program's result elements); aggregation items
// are the windows, checked with CheckAgg.
func (q Query) Expect(ps []Photon) (items []string, wins []Window) {
	if q.Kind == Aggregation {
		return nil, q.Windows(ps)
	}
	tag := "proj"
	if q.Kind == Selection {
		tag = "sel"
	}
	for _, p := range ps {
		if q.Kind == Selection && (!q.inBox(p) || (q.EnMin >= 0 && p.En < q.EnMin)) {
			continue
		}
		var b strings.Builder
		b.WriteString("<" + tag + ">")
		for _, path := range q.Proj {
			leaf := path[strings.LastIndexByte(path, '/')+1:]
			b.WriteString("<" + leaf + ">" + p.Field(path) + "</" + leaf + ">")
		}
		b.WriteString("</" + tag + ">")
		items = append(items, b.String())
	}
	return items, nil
}

// Count returns how many result items the query produces over ps.
func (q Query) Count(ps []Photon) int {
	items, wins := q.Expect(ps)
	return len(items) + len(wins)
}

// ParseScaled parses a plain decimal number ("-12.50", "7") into its
// integer units and number of decimal places.
func ParseScaled(s string) (units int64, places int, err error) {
	t := s
	neg := strings.HasPrefix(t, "-")
	if neg {
		t = t[1:]
	}
	intPart, frac, _ := strings.Cut(t, ".")
	if intPart == "" || strings.Trim(intPart+frac, "0123456789") != "" {
		return 0, 0, fmt.Errorf("oracle: not a plain decimal: %q", s)
	}
	u, err := strconv.ParseInt(intPart+frac, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("oracle: %q: %v", s, err)
	}
	if neg {
		u = -u
	}
	return u, len(frac), nil
}

// equalScaled reports whether the printed decimal s equals v·10^-places.
func equalScaled(s string, v int64, places int) bool {
	u, p, err := ParseScaled(s)
	if err != nil {
		return false
	}
	for p < places {
		u, p = u*10, p+1
	}
	for places < p {
		v, places = v*10, places+1
	}
	return u == v
}

// CheckAgg checks one printed aggregate value against window w: count,
// sum, min and max exactly; avg exactly when the ratio terminates within
// nine decimal places, otherwise to within the rounding of its last
// printed digit (the program then rounds it to ten significant digits).
func (q Query) CheckAgg(w Window, printed string) error {
	ok := false
	switch q.Op {
	case "count":
		ok = printed == strconv.FormatInt(w.N, 10)
	case "sum":
		ok = equalScaled(printed, w.Sum, 2)
	case "min":
		ok = equalScaled(printed, w.Min, 2)
	case "max":
		ok = equalScaled(printed, w.Max, 2)
	case "avg":
		u, p, err := ParseScaled(printed)
		if err == nil && p <= 12 {
			scale := int64(1)
			for i := 0; i < p; i++ {
				scale *= 10
			}
			// d/(100·N·10^p) is the printed value minus the exact one.
			d := u*100*w.N - w.Sum*scale
			if w.Sum*10_000_000%w.N == 0 {
				// The ratio terminates within nine places: printed exactly.
				ok = d == 0
			} else {
				// Within half a unit of the last printed digit, plus a
				// millionth of a unit for the float division before it.
				if d < 0 {
					d = -d
				}
				ok = 2*d <= 100*w.N+100*w.N/1_000_000
			}
		}
	}
	if !ok {
		return fmt.Errorf("window %d (n=%d sum=%d min=%d max=%d): %s printed %q",
			w.K, w.N, w.Sum, w.Min, w.Max, q.Op, printed)
	}
	return nil
}

// Check compares a subscription's result items, rendered canonically, with
// the query's evaluation over ps.
func (q Query) Check(ps []Photon, got []string) error {
	items, wins := q.Expect(ps)
	if q.Kind != Aggregation {
		if len(got) != len(items) {
			return fmt.Errorf("%s: got %d items, oracle %d", q.Kind, len(got), len(items))
		}
		for i := range items {
			if got[i] != items[i] {
				return fmt.Errorf("%s item %d: got %s, oracle %s", q.Kind, i, got[i], items[i])
			}
		}
		return nil
	}
	if len(got) != len(wins) {
		return fmt.Errorf("aggregation %s ∆=%d µ=%d: got %d windows, oracle %d",
			q.Op, q.Size, q.Step, len(got), len(wins))
	}
	for i, w := range wins {
		v, ok := strings.CutPrefix(got[i], "<agg_en>")
		if v, ok2 := strings.CutSuffix(v, "</agg_en>"); ok && ok2 {
			if err := q.CheckAgg(w, v); err != nil {
				return err
			}
			continue
		}
		return fmt.Errorf("aggregation item %d: unexpected shape %s", i, got[i])
	}
	return nil
}
