package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traceSpanEvery is the traced run's sampling rate: the program's
// provenance spans and the benchmark's own request spans both keep 1 in 16.
const traceSpanEvery = 16

// span is one benchmark-side span around a call into a module. Spans of
// one request share Req; Parent is the span that caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerAcc accumulates one layer's calls: inclusive time, self time (minus
// the time of child spans) and every call's duration.
type layerAcc struct {
	calls      int
	total      time.Duration
	self       time.Duration
	durs       []time.Duration
	keepDurs   bool
	firstOrder int
}

// tracer keeps the traced run's spans and layer totals in memory and
// writes them out when the run ends.
type tracer struct {
	workload string
	seed     int64
	t0       time.Time
	nextID   uint64
	nextReq  uint64
	spans    []span
	layers   map[string]*layerAcc
	metrics  map[string]metric
	in       *traceInputs
	// itemsIn counts the items each per-item layer processed.
	itemsIn map[string]float64

	candidatesPerSub, cacheHitRatio     float64
	execAllocsPerItem, wireBytesPerItem float64
}

func newTracer(workload string, seed int64) *tracer {
	return &tracer{
		workload: workload, seed: seed, t0: time.Now(),
		layers: map[string]*layerAcc{}, metrics: map[string]metric{}, itemsIn: map[string]float64{},
	}
}

// openSpan is a span in flight.
type openSpan struct {
	id, parent, req uint64
	name            string
	start           time.Time
	child           time.Duration
	keep            bool
	up              *openSpan
}

// request starts the root span of one request; a request keeps its spans
// in the span file when its id is sampled (1 in traceSpanEvery).
func (t *tracer) request(name string) *openSpan {
	t.nextReq++
	o := t.open(name, t.nextReq, nil)
	return &o
}

// open starts a span; it is a value so that a call's span stays off the
// heap.
func (t *tracer) open(name string, req uint64, up *openSpan) openSpan {
	t.nextID++
	o := openSpan{id: t.nextID, req: req, name: name, up: up, keep: req%traceSpanEvery == 1}
	if up != nil {
		o.parent = up.id
	}
	o.start = time.Now()
	return o
}

// end closes the span, charges its layer and returns its duration.
func (t *tracer) end(o *openSpan) time.Duration {
	now := time.Now()
	d := now.Sub(o.start)
	if o.up != nil {
		o.up.child += d
	}
	l := t.layers[o.name]
	if l == nil {
		l = &layerAcc{firstOrder: len(t.layers)}
		t.layers[o.name] = l
	}
	l.calls++
	l.total += d
	l.self += d - o.child
	if l.keepDurs {
		l.durs = append(l.durs, d)
	}
	if o.keep {
		t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
			Start: o.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds()})
	}
	return d
}

// call times fn as one call of the named layer under parent.
func (t *tracer) call(name string, parent *openSpan, fn func()) time.Duration {
	o := t.open(name, parent.req, parent)
	fn()
	return t.end(&o)
}

// keepDurations makes the named layer keep every call's duration, for
// medians.
func (t *tracer) keepDurations(names ...string) {
	for _, n := range names {
		if t.layers[n] == nil {
			t.layers[n] = &layerAcc{firstOrder: len(t.layers)}
		}
		t.layers[n].keepDurs = true
	}
}

func (t *tracer) layer(name string) *layerAcc {
	if l := t.layers[name]; l != nil {
		return l
	}
	return &layerAcc{}
}

// perCall returns the layer's mean time per call.
func (l *layerAcc) perCall() time.Duration {
	if l.calls == 0 {
		return 0
	}
	return l.total / time.Duration(l.calls)
}

// medianCall returns the layer's median call duration.
func (l *layerAcc) medianCall() time.Duration {
	vs := make([]float64, len(l.durs))
	for i, d := range l.durs {
		vs[i] = float64(d)
	}
	return time.Duration(median(vs))
}

func (t *tracer) set(name, unit string, v float64) { t.metrics[name] = metric{Value: v, Unit: unit} }

// write stores the span file and the layer table under
// .bench_build/trace/ and prints the table to standard error.
func (t *tracer) write(extra []string) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", t.workload, t.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	names := make([]string, 0, len(t.layers))
	for n, l := range t.layers {
		if l.calls > 0 {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return t.layers[names[i]].firstOrder < t.layers[names[j]].firstOrder })
	var b []byte
	b = fmt.Appendf(b, "# %s seed %d: benchmark-side spans around each module call (%d kept, 1 request in %d)\n",
		t.workload, t.seed, len(t.spans), traceSpanEvery)
	b = fmt.Appendf(b, "%-34s %10s %12s %12s %12s\n", "layer", "calls", "total ms", "self ms", "ns/call")
	for _, n := range names {
		l := t.layers[n]
		b = fmt.Appendf(b, "%-34s %10d %12.3f %12.3f %12.0f\n", n, l.calls,
			ms(l.total), ms(l.self), float64(l.perCall()))
	}
	b = fmt.Appendf(b, "\n%-34s %14s %s\n", "metric", "value", "unit")
	mnames := make([]string, 0, len(t.metrics))
	for n := range t.metrics {
		mnames = append(mnames, n)
	}
	sort.Strings(mnames)
	for _, n := range mnames {
		b = fmt.Appendf(b, "%-34s %14.6g %s\n", n, t.metrics[n].Value, t.metrics[n].Unit)
	}
	for _, e := range extra {
		b = fmt.Appendf(b, "%s\n", e)
	}
	if err := os.WriteFile(base+".layers.txt", b, 0o644); err != nil {
		return err
	}
	os.Stderr.Write(b) //nolint:errcheck // diagnostics
	fmt.Fprintf(os.Stderr, "sgbench: wrote %s.layers.txt and %s.spans.jsonl\n", base, base)
	return nil
}
