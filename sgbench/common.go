package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	grt "runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/network"
	"streamshare/internal/stats"
	"streamshare/internal/xmlstream"
	"streamshare/sgbench/oracle"
)

// Grid constants follow the paper's §4 scenario 2: uniform super-peers on
// 100 Mbit/s links.
const (
	linkBandwidth = 12_500_000 // bytes/s
	peerCapacity  = 42_000     // work units/s
	// statsSample is how many leading feed items the stream statistics are
	// collected from, as sgd samples 2000 photons at start-up.
	statsSample = 2000
	// sourceFreq is the nominal arrival rate recorded in the statistics.
	sourceFreq = 100
	// populationSeed draws every workload's query population. The
	// population fixes the plans, and with them every modeled cost and most
	// of the CPU an item takes; drawn from --seed, 32 queries made those
	// figures swing by a third between seeds. --seed draws the feeds.
	populationSeed = 1
)

func peerID(i int) network.PeerID { return network.PeerID(fmt.Sprintf("SP%d", i)) }

// grid builds an n×n super-peer grid.
func grid(n int) *network.Network {
	net := network.New()
	for i := 0; i < n*n; i++ {
		net.AddPeer(network.Peer{ID: peerID(i), Super: true, Capacity: peerCapacity, PerfIndex: 1})
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := r*n + c
			if c < n-1 {
				net.Connect(peerID(i), peerID(i+1), linkBandwidth)
			}
			if r < n-1 {
				net.Connect(peerID(i), peerID(i+n), linkBandwidth)
			}
		}
	}
	return net
}

// photonElem builds the program's item for one oracle photon.
func photonElem(p oracle.Photon) *xmlstream.Element {
	return xmlstream.E("photon",
		xmlstream.E("coord",
			xmlstream.E("cel",
				xmlstream.T("ra", p.Field("coord/cel/ra")),
				xmlstream.T("dec", p.Field("coord/cel/dec")),
			),
			xmlstream.E("det",
				xmlstream.T("dx", p.Field("coord/det/dx")),
				xmlstream.T("dy", p.Field("coord/det/dy")),
			),
		),
		xmlstream.T("phc", p.Field("phc")),
		xmlstream.T("en", p.Field("en")),
		xmlstream.T("det_time", p.Field("det_time")),
	)
}

func photonElems(ps []oracle.Photon) []*xmlstream.Element {
	out := make([]*xmlstream.Element, len(ps))
	for i, p := range ps {
		out[i] = photonElem(p)
	}
	return out
}

// canonical renders a result element as <name>text</name> or
// <name>children</name>, walking the element's public fields directly so
// the comparison does not depend on the program's own serializer.
func canonical(e *xmlstream.Element) string {
	var b strings.Builder
	var walk func(e *xmlstream.Element)
	walk = func(e *xmlstream.Element) {
		b.WriteString("<" + e.Name + ">")
		if len(e.Children) == 0 {
			b.WriteString(e.Text)
		}
		for _, c := range e.Children {
			walk(c)
		}
		b.WriteString("</" + e.Name + ">")
	}
	walk(e)
	return b.String()
}

func canonicalAll(es []*xmlstream.Element) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = canonical(e)
	}
	return out
}

// source is one original stream of a workload: its name, home peer, the
// oracle's photon values and the program's items built from them.
type source struct {
	name  string
	at    network.PeerID
	ps    []oracle.Photon
	items []*xmlstream.Element
}

func newSource(name string, at network.PeerID, seed int64, n int) *source {
	ps := oracle.NewGen(seed).Generate(n)
	return &source{name: name, at: at, ps: ps, items: photonElems(ps)}
}

// register registers the source with statistics collected from its leading
// items, as a data provider does.
func (s *source) register(eng *core.Engine) error {
	st := stats.Collect(s.name, "photon", s.items[:min(statsSample, len(s.items))], sourceFreq)
	_, err := eng.RegisterStream(s.name, xmlstream.ParsePath("photons/photon"), s.at, st)
	return err
}

// newEngine builds an engine over an n×n grid with the sources registered.
func newEngine(n int, srcs []*source, cfg core.Config) (*core.Engine, error) {
	eng := core.NewEngine(grid(n), cfg)
	for _, s := range srcs {
		if err := s.register(eng); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// population draws n queries over the given streams with the exact
// template proportions of oracle.DrawPopulation, and assigns each a target
// peer.
type subReq struct {
	q      oracle.Query
	text   string
	target network.PeerID
}

func population(rnd *rand.Rand, streams []string, n, peers int) []subReq {
	qs := oracle.DrawPopulation(rnd, streams, n)
	out := make([]subReq, len(qs))
	for i, q := range qs {
		out[i] = subReq{q: q, text: q.Text(), target: peerID((i * 13) % peers)}
	}
	return out
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter brackets a timed section: wall, CPU and heap allocation deltas.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter {
	var ms grt.MemStats
	grt.ReadMemStats(&ms)
	return meter{wall: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc}
}

type measured struct {
	wall, cpu time.Duration
	alloc     uint64
}

func (m meter) stop() measured {
	wall := time.Since(m.wall)
	cpu := cpuTime() - m.cpu
	var ms grt.MemStats
	grt.ReadMemStats(&ms)
	return measured{wall: wall, cpu: cpu, alloc: ms.TotalAlloc - m.alloc}
}

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks; vs is sorted in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	return vs[lo] + (pos-float64(lo))*(vs[lo+1]-vs[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// workDir returns a fresh directory for durable state under the checkout's
// build directory; the caller removes it.
func workDir(tag string) (string, error) {
	base := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, tag+"-")
}

// relEqual reports whether a and b agree to floating-point summation
// order.
func relEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	return d <= 1e-9*m+1e-9
}

// metricsEqual compares two runs' modeled traffic and work per link and
// per peer.
func metricsEqual(a, b *network.Metrics) error {
	for l, v := range a.LinkBytes {
		if !relEqual(v, b.LinkBytes[l]) {
			return fmt.Errorf("link %s traffic %v vs %v", l, v, b.LinkBytes[l])
		}
	}
	for l, v := range b.LinkBytes {
		if _, ok := a.LinkBytes[l]; !ok && v != 0 {
			return fmt.Errorf("link %s traffic 0 vs %v", l, v)
		}
	}
	for p, v := range a.PeerWork {
		if !relEqual(v, b.PeerWork[p]) {
			return fmt.Errorf("peer %s work %v vs %v", p, v, b.PeerWork[p])
		}
	}
	for p, v := range b.PeerWork {
		if _, ok := a.PeerWork[p]; !ok && v != 0 {
			return fmt.Errorf("peer %s work 0 vs %v", p, v)
		}
	}
	return nil
}
