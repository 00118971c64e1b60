package oracle

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// at builds a photon inside every aggregation box with the given det_time
// and energy, both in hundredths.
func at(t, en int64) Photon { return Photon{RA: 1250, Dec: -450, T: t, En: en} }

func aggQuery(size, step int64, op string) Query {
	return Query{Stream: "photons", Kind: Aggregation, RALo: 1200, RAHi: 1380, DecLo: -490, DecHi: -400,
		EnMin: -1, Size: size, Step: step, Op: op}
}

func TestWindowBoundaries(t *testing.T) {
	// Tumbling windows of 10.00: [0,10) [10,20) [20,30).
	q := aggQuery(1000, 1000, "count")
	ps := []Photon{at(0, 100), at(999, 100), at(1000, 100), at(1999, 100), at(2000, 100)}
	got := q.Windows(ps)
	// The item at exactly 10.00 belongs to window 1 and closes window 0; the
	// item at 20.00 closes window 1; window 2 is still open at the end.
	want := []Window{{K: 0, N: 2, Sum: 200, Min: 100, Max: 100}, {K: 1, N: 2, Sum: 200, Min: 100, Max: 100}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windows = %+v, want %+v", got, want)
	}
}

func TestSlidingWindowsIncludeNegativeStarts(t *testing.T) {
	// ∆=20, µ=10: an item at 5.00 lies in windows -1 [-10,10) and 0 [0,20).
	q := aggQuery(2000, 1000, "sum")
	got := q.Windows([]Photon{at(500, 120), at(2500, 30)})
	want := []Window{{K: -1, N: 1, Sum: 120, Min: 120, Max: 120}, {K: 0, N: 1, Sum: 120, Min: 120, Max: 120}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windows = %+v, want %+v", got, want)
	}
}

func TestEmptyWindowsAreNotEmitted(t *testing.T) {
	// A gap from 1.00 to 95.00 spans windows 1..8 of width 10: none exists.
	q := aggQuery(1000, 1000, "max")
	got := q.Windows([]Photon{at(100, 50), at(9500, 70), at(10500, 10)})
	if len(got) != 2 || got[0].K != 0 || got[1].K != 9 {
		t.Fatalf("windows = %+v, want windows 0 and 9 only", got)
	}
}

func TestUnselectedItemsNeitherCountNorClose(t *testing.T) {
	q := aggQuery(1000, 1000, "count")
	outside := Photon{RA: 1000, Dec: -450, T: 5000, En: 100}
	if got := q.Windows([]Photon{at(100, 50), outside}); len(got) != 0 {
		t.Fatalf("an item outside the box closed a window: %+v", got)
	}
}

func TestCheckAggOperators(t *testing.T) {
	w := Window{K: 0, N: 3, Sum: 100, Min: 10, Max: 60} // 0.10 + 0.30 + 0.60
	cases := []struct {
		op, printed string
		ok          bool
	}{
		{"count", "3", true},
		{"count", "4", false},
		{"sum", "1.00", true},
		{"sum", "1", true},
		{"sum", "1.01", false},
		{"min", "0.1", true},
		{"min", "0.11", false},
		{"max", "0.60", true},
		{"max", "0.59", false},
		// 1.00/3 does not terminate: it must be rounded correctly at its
		// last printed digit.
		{"avg", "0.3333333333", true},
		{"avg", "0.3333333334", false},
		{"avg", "0.3333333340", false},
		{"avg", "0.34", false},
		{"avg", "1e-1", false},
	}
	for _, c := range cases {
		err := aggQuery(1000, 1000, c.op).CheckAgg(w, c.printed)
		if (err == nil) != c.ok {
			t.Errorf("%s %q: err = %v, want ok=%v", c.op, c.printed, err, c.ok)
		}
	}
	// A terminating average must be printed exactly.
	even := Window{N: 4, Sum: 100}
	if err := aggQuery(1000, 1000, "avg").CheckAgg(even, "0.25"); err != nil {
		t.Errorf("exact avg rejected: %v", err)
	}
	if err := aggQuery(1000, 1000, "avg").CheckAgg(even, "0.2"); err == nil {
		t.Error("avg 0.2 accepted for an exact 0.25")
	}
}

func TestCheckSelectionRendering(t *testing.T) {
	q := Query{Stream: "photons", Kind: Selection, RALo: 1200, RAHi: 1380, DecLo: -490, DecHi: -400,
		EnMin: 130, Proj: []string{"coord/cel/ra", "en"}}
	ps := []Photon{{RA: 1250, Dec: -455, En: 130, T: 7}, {RA: 1250, Dec: -455, En: 129, T: 8}, {RA: 1390, Dec: -455, En: 200}}
	want := []string{"<sel><ra>125.0</ra><en>1.30</en></sel>"}
	if err := q.Check(ps, want); err != nil {
		t.Fatal(err)
	}
	if err := q.Check(ps, nil); err == nil {
		t.Fatal("missing result accepted")
	}
	if !strings.Contains(q.Text(), "$p/en >= 1.30") || !strings.Contains(q.Text(), "$p/coord/cel/dec <= -40.0") {
		t.Fatalf("query text:\n%s", q.Text())
	}
}

func TestFixedAndParseScaled(t *testing.T) {
	for v, s := range map[int64]string{0: "0.00", 5: "0.05", -5: "-0.05", 1234: "12.34", -60000: "-600.00"} {
		if got := Fixed(v, 2); got != s {
			t.Errorf("Fixed(%d) = %q, want %q", v, got, s)
		}
		u, p, err := ParseScaled(s)
		if err != nil || u != v || p != 2 {
			t.Errorf("ParseScaled(%q) = %d, %d, %v", s, u, p, err)
		}
	}
}

func TestDrawPopulationFixesFamilyCounts(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		n := map[Kind]int{}
		for _, q := range DrawPopulation(rand.New(rand.NewSource(seed)), []string{"a", "b"}, 32) {
			n[q.Kind]++
		}
		if n[Selection] != 16 || n[Projection] != 6 || n[Aggregation] != 10 {
			t.Fatalf("seed %d: families %v, want 16:6:10", seed, n)
		}
	}
}

func TestGenFeedIsIncreasingAndInRange(t *testing.T) {
	ps := NewGen(7).Generate(5000)
	for i, p := range ps {
		if i > 0 && p.T <= ps[i-1].T {
			t.Fatalf("det_time not increasing at %d", i)
		}
		if p.RA < 1000 || p.RA > 1600 || p.Dec < -600 || p.Dec > -300 || p.En < 10 || p.En > 300 {
			t.Fatalf("photon %d out of range: %+v", i, p)
		}
	}
}
