package main

import (
	"fmt"
	"io"
	"os"
	grt "runtime"
	"strings"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/durable"
	"streamshare/internal/exec"
	"streamshare/internal/network"
	"streamshare/internal/obs"
	"streamshare/internal/properties"
	"streamshare/internal/runtime"
	"streamshare/internal/transport"
	"streamshare/internal/wire"
	"streamshare/internal/wxquery"
	"streamshare/internal/xmlstream"
	"streamshare/sgbench/oracle"
)

// traceInputs is what the layer replays need from a workload: its inputs
// and what its traced round measured.
type traceInputs struct {
	srcs   []*source
	pop    []subReq
	newEng func() (*core.Engine, error)
	// docs are the feeds in order, one per FEED (churn) or one per round.
	docs   [][]oracle.Photon
	docSrc []string
	// live > 0 marks churn: the first live queries are installed, then each
	// further one replaces the oldest, with a feed every feedEvery
	// mutations.
	live, feedEvery int

	// What the traced round measured.
	items     float64 // source items of the round
	run       measured
	counters  obs.Snapshot // engine registries' delta over the round
	hwm       int
	links     linkStats
	clientSub []float64 // churn: client SUBSCRIBE latencies, ms
	mutations int
}

func (t *tracer) setInputs(in *traceInputs) { t.in = in }

// runtimeCounters records the share round's runtime counters.
func (t *tracer) runtimeCounters(eng *core.Engine, rt *runtime.Runtime, m measured, items float64) {
	t.in.items, t.in.run = items, m
	t.in.counters = eng.Obs().Metrics.Snapshot()
	for _, n := range rt.MailboxHWM() {
		t.in.hwm = max(t.in.hwm, n)
	}
}

// clusterCounters records the cluster round's counters from both nodes.
func (t *tracer) clusterCounters(cr *clusterRound, rts [2]*runtime.Runtime, links linkStats, m measured, items float64) {
	t.in.items, t.in.run, t.in.links = items, m, links
	t.in.counters = sumSnapshots(cr.pr[0].eng.Obs().Metrics.Snapshot(), cr.pr[1].eng.Obs().Metrics.Snapshot())
	for _, rt := range rts {
		for _, n := range rt.MailboxHWM() {
			t.in.hwm = max(t.in.hwm, n)
		}
	}
}

// churnCounters records the churn loop's counters from the server engine.
func (t *tracer) churnCounters(before, after obs.Snapshot, res *churnResult, clientSub []float64) {
	t.in.items, t.in.run = res.feedItems, res.loop
	t.in.counters = after.Delta(before)
	t.in.clientSub = append([]float64(nil), clientSub...)
}

func sumSnapshots(a, b obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{Counters: map[string]float64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	for _, s := range []obs.Snapshot{a, b} {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, h := range s.Histograms {
			if cur, ok := out.Histograms[k]; ok && len(cur.Counts) == len(h.Counts) {
				for i := range h.Counts {
					cur.Counts[i] += h.Counts[i]
				}
				cur.Count += h.Count
				cur.Sum += h.Sum
				cur.Min, cur.Max = min(cur.Min, h.Min), max(cur.Max, h.Max)
				out.Histograms[k] = cur
				continue
			}
			h.Counts = append([]uint64(nil), h.Counts...)
			out.Histograms[k] = h
		}
	}
	return out
}

// finish runs the layer replays over the workload's inputs, derives every
// per-layer metric and writes the span file and the layer table. untraced
// and traced are the two halves of the traced run: the same workload with
// the program's spans off (or at their default rate) and at 1 in 16.
func (t *tracer) finish(untraced, traced *report) (*report, error) {
	in := t.in
	t.keepDurations("wxquery.parse", "properties.build", "properties.match", "network.route",
		"core.subscribe", "core.unsubscribe", "core.simulate", "durable.append.always",
		"durable.append.interval", "durable.append.none")
	if err := t.replayControlPlane(); err != nil {
		return nil, err
	}
	if err := t.replayExec(); err != nil {
		return nil, err
	}
	t.replayXML()
	t.replayWire()
	catalog, err := t.replayCatalog()
	if err != nil {
		return nil, err
	}
	if err := t.replayAppends(catalog); err != nil {
		return nil, err
	}

	us := func(name string) float64 { return float64(t.layer(name).medianCall()) / 1e3 }
	perItem := func(name string) float64 {
		if n := t.itemsIn[name]; n > 0 {
			return float64(t.layer(name).total) / n
		}
		return 0
	}
	c := in.counters.Counters
	h := in.counters.Histograms
	per := func(v float64) float64 {
		if in.items == 0 {
			return 0
		}
		return v / in.items
	}

	t.set("xmlstream.decode_ns_per_item", "ns", perItem("xmlstream.decode"))
	t.set("xmlstream.marshal_ns_per_item", "ns", perItem("xmlstream.marshal"))
	t.set("xmlstream.marshal_size_ns_per_item", "ns", perItem("xmlstream.marshal_size"))
	t.set("wxquery.parse_us", "us", us("wxquery.parse"))
	t.set("properties.build_us", "us", us("properties.build"))
	t.set("properties.match_us", "us", us("properties.match"))
	t.set("network.route_us", "us", us("network.route"))
	t.set("core.subscribe_us", "us", us("core.subscribe"))
	t.set("core.unsubscribe_us", "us", us("core.unsubscribe"))
	t.set("core.simulate_ms_per_feed", "ms", us("core.simulate")/1e3)
	t.set("core.replay_ms", "ms", ms(t.layer("core.replay").total))
	t.set("durable.open_ms", "ms", ms(t.layer("durable.open").total))
	for _, p := range []string{"always", "interval", "none"} {
		t.set("durable.append_us."+p, "us", us("durable.append."+p))
	}
	overhead := 0.0
	if len(in.clientSub) > 0 {
		overhead = median(in.clientSub)*1e3 - us("core.subscribe") - us("durable.append.interval")
	}
	t.set("server.overhead_us", "us", overhead)
	t.set("durable.fsync_us_p50", "us", h["durable.fsync.seconds"].Quantile(0.5)*1e6)
	t.set("durable.appends_per_item", "count", per(c["durable.appends"]))

	t.set("plan.candidates_per_subscribe", "count", t.candidatesPerSub)
	t.set("plan.cache_hit_ratio", "ratio", t.cacheHitRatio)
	for _, op := range []string{"select", "project", "window-agg", "window-merge", "restructure"} {
		t.set("exec."+strings.ReplaceAll(op, "-", "_")+"_ns_per_item", "ns", perItem("exec."+op))
	}
	t.set("exec.allocs_per_item", "allocs", t.execAllocsPerItem)

	t.set("runtime.batch_items_mean", "count", h["runtime.batch.size"].Mean())
	t.set("runtime.messages_per_kitem", "count", 1000*per(c["runtime.messages"]))
	t.set("runtime.mailbox_hwm_items", "count", float64(in.hwm))
	t.set("runtime.queue_p50_ms", "ms", h["latency.queue"].Quantile(0.5)*1e3)
	t.set("runtime.compute_p50_ms", "ms", h["latency.compute"].Quantile(0.5)*1e3)
	// The operators' own time, without the replay's span bookkeeping.
	var execCPU time.Duration
	for name, l := range t.layers {
		if strings.HasPrefix(name, "exec.") && name != "exec.item" && name != "exec.flush" {
			execCPU += l.self
		}
	}
	selfMs := 0.0
	if c["runtime.runs"] > 0 {
		selfMs = ms(in.run.cpu) - ms(execCPU)
	}
	t.set("runtime.self_ms", "ms", selfMs)
	t.set("runtime.credit_stalls", "count", c["runtime.credit.stalls"])

	t.set("wire.encode_ns_per_item", "ns", perItem("wire.encode"))
	t.set("wire.decode_ns_per_item", "ns", perItem("wire.decode"))
	t.set("wire.bytes_per_item", "B", t.wireBytesPerItem)
	t.set("transport.frame_encode_ns", "ns", float64(t.layer("transport.frame_encode").perCall()))
	t.set("transport.frame_decode_ns", "ns", float64(t.layer("transport.frame_decode").perCall()))
	batchFrames := float64(h["wire.encode.seconds"].Count)
	t.set("transport.frames_per_kitem", "count", 1000*per(float64(in.links.frames)))
	t.set("transport.ack_frames_per_kitem", "count", 1000*per(max(0, float64(in.links.frames)-batchFrames)))
	t.set("transport.send_waits", "count", float64(in.links.waits))
	t.set("transport.wire_bytes_per_item", "B", per(float64(in.links.bytes)))

	// The share of the traced round's CPU the layer table accounts for:
	// each layer's replayed cost per unit times the units the round did.
	var accounted time.Duration
	switch t.workload {
	case "share":
		accounted = execCPU
	case "cluster":
		accounted = execCPU +
			time.Duration(perItem("wire.encode")*c["wire.encode.items"]) +
			time.Duration(perItem("wire.decode")*c["wire.decode.items"]) +
			t.layer("transport.frame_encode").perCall()*time.Duration(in.links.frames) +
			t.layer("transport.frame_decode").perCall()*time.Duration(in.links.recvFrames) +
			t.layer("durable.append.interval").perCall()*time.Duration(c["durable.appends"])
	case "churn":
		accounted = t.layer("core.subscribe").total + t.layer("core.unsubscribe").total +
			t.layer("core.simulate").total +
			time.Duration(perItem("xmlstream.decode")*in.items) +
			t.layer("durable.append.interval").medianCall()*time.Duration(in.mutations)
	}
	share := 0.0
	if in.run.cpu > 0 {
		share = float64(accounted) / float64(in.run.cpu)
	}
	t.set("trace.layer_cpu_share", "ratio", share)
	overheadRatio := traced.Metrics["cpu_us_per_item"].Value/untraced.Metrics["cpu_us_per_item"].Value - 1
	t.set("trace.overhead_ratio", "ratio", overheadRatio)

	extra := []string{
		fmt.Sprintf("# tracing overhead: cpu_us_per_item %.3f traced vs %.3f untraced (%+.1f%%)",
			traced.Metrics["cpu_us_per_item"].Value, untraced.Metrics["cpu_us_per_item"].Value, 100*overheadRatio),
		fmt.Sprintf("# layers account for %.1f%% of the traced round's %.1f ms CPU", 100*share, ms(in.run.cpu)),
	}
	if err := t.write(extra); err != nil {
		return nil, err
	}
	out := &report{
		Correct:   untraced.Correct && traced.Correct,
		Attempted: untraced.Attempted + traced.Attempted,
		Failed:    untraced.Failed + traced.Failed,
		Metrics:   t.metrics,
	}
	return out, nil
}

// replayControlPlane times wxquery, properties, network and core calls on
// the workload's queries, subscribing them on a twin engine the way the
// workload does (churn: the same replacement sequence, simulating each
// feed at its point in the sequence).
func (t *tracer) replayControlPlane() error {
	in := t.in
	eng, err := in.newEng()
	if err != nil {
		return err
	}
	srcAt := map[string]network.PeerID{}
	for _, s := range in.srcs {
		srcAt[s.name] = s.at
	}
	feedNo := 0
	simulate := func() error {
		req := t.request("feed")
		defer t.end(req)
		feed := map[string][]*xmlstream.Element{in.docSrc[feedNo]: photonElems(in.docs[feedNo])}
		var err error
		t.call("core.simulate", req, func() { _, err = eng.Simulate(feed, false) })
		feedNo++
		return err
	}
	subscribe := func(r subReq) (string, error) {
		req := t.request("subscribe")
		defer t.end(req)
		var q *wxquery.Query
		var err error
		t.call("wxquery.parse", req, func() { q, err = wxquery.Parse(r.text) })
		if err != nil {
			return "", err
		}
		var props *properties.Properties
		t.call("properties.build", req, func() { props, err = properties.FromQuery(q) })
		if err != nil {
			return "", err
		}
		// The candidate pairs: every deployed stream over the same source.
		var cands []*properties.Input
		for _, d := range eng.Streams() {
			if d.Input.Stream == r.q.Stream && !d.NotShareable {
				cands = append(cands, d.Input)
			}
		}
		t.call("properties.match", req, func() {
			for _, sub := range props.Inputs {
				for _, c := range cands {
					properties.MatchInput(c, sub)
				}
			}
		})
		t.call("network.route", req, func() { eng.Net.ShortestPath(srcAt[r.q.Stream], r.target) })
		var sub *core.Subscription
		t.call("core.subscribe", req, func() { sub, err = eng.Subscribe(r.text, r.target, core.StreamSharing) })
		if err != nil {
			return "", err
		}
		return sub.ID, nil
	}
	unsubscribe := func(id string) error {
		req := t.request("unsubscribe")
		defer t.end(req)
		var err error
		t.call("core.unsubscribe", req, func() { err = eng.Unsubscribe(id) })
		return err
	}

	var ids []string
	if in.live == 0 {
		for _, r := range in.pop {
			id, err := subscribe(r)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		for range in.docs {
			if err := simulate(); err != nil {
				return err
			}
		}
		for _, id := range ids {
			if err := unsubscribe(id); err != nil {
				return err
			}
		}
	} else {
		// The initial population is set-up, not part of the measured loop.
		for _, r := range in.pop[:in.live] {
			sub, err := eng.Subscribe(r.text, r.target, core.StreamSharing)
			if err != nil {
				return err
			}
			ids = append(ids, sub.ID)
		}
		base := eng.Obs().Metrics.Snapshot()
		for i, r := range in.pop[in.live:] {
			id, err := subscribe(r)
			if err != nil {
				return err
			}
			ids = append(ids, id)
			if err := unsubscribe(ids[0]); err != nil {
				return err
			}
			ids = ids[1:]
			if (2*i+2)%in.feedEvery == 0 {
				if err := simulate(); err != nil {
					return err
				}
			}
		}
		t.planCounters(eng.Obs().Metrics.Snapshot().Delta(base))
		return nil
	}
	t.planCounters(eng.Obs().Metrics.Snapshot())
	return nil
}

// planCounters derives the planner's ratios from the twin engine's
// counters.
func (t *tracer) planCounters(s obs.Snapshot) {
	c := s.Counters
	if n := c["core.subscribe.total"]; n > 0 {
		t.candidatesPerSub = c["core.discovery.candidates"] / n
	}
	var hit, miss float64
	for k, v := range c {
		switch {
		case strings.HasPrefix(k, "plan.cache.") && strings.HasSuffix(k, ".hit"):
			hit += v
		case strings.HasPrefix(k, "plan.cache.") && strings.HasSuffix(k, ".miss"):
			miss += v
		}
	}
	if hit+miss > 0 {
		t.cacheHitRatio = hit / (hit + miss)
	}
}

// replayExec replays the workload's feeds through a twin engine's
// installed pipelines in plan order, as the simulator walks them, timing
// each operator's Process per item.
func (t *tracer) replayExec() error {
	in := t.in
	eng, err := in.newEng()
	if err != nil {
		return err
	}
	pop := in.pop
	if in.live > 0 {
		// Churn replays its feeds through the population live at the end.
		pop = pop[len(pop)-in.live:]
	}
	for _, r := range pop {
		if _, err := eng.Subscribe(r.text, r.target, core.StreamSharing); err != nil {
			return err
		}
	}
	x := &execReplay{t: t, children: map[*core.Deployed][]*core.Deployed{}, readers: map[*core.Deployed][]*exec.Pipeline{},
		scratch: map[exec.Operator][]*xmlstream.Element{}, names: map[exec.Operator]string{}}
	for _, d := range eng.Streams() {
		if d.Parent != nil {
			x.children[d.Parent] = append(x.children[d.Parent], d)
		}
	}
	for _, sub := range eng.Subscriptions() {
		for _, si := range sub.Inputs {
			x.readers[si.Feed] = append(x.readers[si.Feed], si.Local)
		}
	}
	feeds := make([][]*xmlstream.Element, len(in.docs))
	items := 0
	for i, d := range in.docs {
		feeds[i] = photonElems(d)
		items += len(d)
	}
	grt.GC()
	var before grt.MemStats
	grt.ReadMemStats(&before)
	for i, feed := range feeds {
		orig := eng.Original(in.docSrc[i])
		for _, it := range feed {
			req := t.request("exec.item")
			x.req = req
			x.deliver(orig, it)
			t.end(req)
		}
		req := t.request("exec.flush")
		x.req = req
		for _, d := range eng.Streams() {
			for _, out := range x.flush(d.Residual.Ops) {
				x.transmit(d, out)
			}
			for _, p := range x.readers[d] {
				x.flush(p.Ops)
			}
		}
		t.end(req)
	}
	var after grt.MemStats
	grt.ReadMemStats(&after)
	t.execAllocsPerItem = float64(after.Mallocs-before.Mallocs) / float64(items)
	return nil
}

type execReplay struct {
	t        *tracer
	req      *openSpan
	children map[*core.Deployed][]*core.Deployed
	readers  map[*core.Deployed][]*exec.Pipeline
	scratch  map[exec.Operator][]*xmlstream.Element
	names    map[exec.Operator]string
}

// run pushes items through ops. Each operator's output goes to its own
// scratch slice, reused from item to item as the runtime's pipelines reuse
// theirs, so the replay allocates what the operators allocate.
func (x *execReplay) run(ops []exec.Operator, items []*xmlstream.Element) []*xmlstream.Element {
	for _, op := range ops {
		next := x.scratch[op][:0]
		name := x.name(op)
		for _, it := range items {
			x.t.itemsIn[name]++
			x.t.call(name, x.req, func() { next = append(next, op.Process(it)...) })
		}
		x.scratch[op] = next
		items = next
		if len(items) == 0 {
			return nil
		}
	}
	return items
}

func (x *execReplay) flush(ops []exec.Operator) []*xmlstream.Element {
	var out []*xmlstream.Element
	for i, op := range ops {
		var flushed []*xmlstream.Element
		x.t.call(x.name(op), x.req, func() { flushed = op.Flush() })
		if len(flushed) > 0 {
			out = append(out, x.run(ops[i+1:], flushed)...)
		}
	}
	return out
}

func (x *execReplay) deliver(d *core.Deployed, item *xmlstream.Element) {
	for _, out := range x.run(d.Residual.Ops, []*xmlstream.Element{item}) {
		x.transmit(d, out)
	}
}

func (x *execReplay) transmit(d *core.Deployed, item *xmlstream.Element) {
	for _, c := range x.children[d] {
		x.deliver(c, item)
	}
	for _, p := range x.readers[d] {
		x.run(p.Ops, []*xmlstream.Element{item})
	}
}

// replayXML times the xmlstream calls: decoding the feed documents and
// marshalling the source items and the results a twin engine collects.
func (t *tracer) replayXML() {
	in := t.in
	for _, d := range in.docs {
		req := t.request("xmlstream.doc")
		dec := xmlstream.NewDecoder(strings.NewReader(oracle.Doc(d))).ConvertAttributes()
		for {
			var err error
			t.call("xmlstream.decode", req, func() { _, err = dec.Next() })
			if err == io.EOF {
				break
			}
			t.itemsIn["xmlstream.decode"]++
			if err != nil {
				fmt.Fprintf(os.Stderr, "sgbench: trace: decode: %v\n", err)
				break
			}
		}
		t.end(req)
	}
	var items []*xmlstream.Element
	for _, d := range in.docs {
		items = append(items, photonElems(d)...)
	}
	if eng, err := in.newEng(); err == nil {
		pop := in.pop
		if in.live > 0 {
			pop = pop[len(pop)-in.live:]
		}
		for _, r := range pop {
			eng.Subscribe(r.text, r.target, core.StreamSharing) //nolint:errcheck // the replays above already checked these
		}
		feed := map[string][]*xmlstream.Element{}
		for i, d := range in.docs {
			feed[in.docSrc[i]] = append(feed[in.docSrc[i]], photonElems(d)...)
		}
		if res, err := eng.Simulate(feed, true); err == nil {
			for _, c := range res.Collected {
				items = append(items, c...)
			}
		}
	}
	var buf []byte
	for i := 0; i < len(items); i += 64 {
		req := t.request("xmlstream.batch")
		for _, e := range items[i:min(i+64, len(items))] {
			t.call("xmlstream.marshal", req, func() { buf = xmlstream.AppendMarshal(buf[:0], e) })
			t.call("xmlstream.marshal_size", req, func() { xmlstream.MarshalSize(e) })
		}
		t.end(req)
	}
	t.itemsIn["xmlstream.marshal"] = float64(len(items))
	t.itemsIn["xmlstream.marshal_size"] = float64(len(items))
}

// replayWire times the binary codec and the frame codec on the feeds'
// items in runtime-sized batches, with dictionaries seeded as the mesh
// seeds them.
func (t *tracer) replayWire() {
	in := t.in
	var items []*xmlstream.Element
	for _, d := range in.docs {
		items = append(items, photonElems(d)...)
	}
	if len(items) == 0 {
		return
	}
	names := xmlstream.InferSchema(items[:min(8, len(items))]).Names()
	enc, dec := wire.NewBinaryEncoder(), wire.NewBinaryDecoder()
	enc.SeedShared(names)
	dec.SeedShared(names)
	batch := runtime.DefaultOptions().BatchSize
	var data, payload []byte
	var wireBytes int
	for i := 0; i < len(items); i += batch {
		chunk := items[i:min(i+batch, len(items))]
		req := t.request("wire.batch")
		t.call("wire.encode", req, func() { data = enc.EncodeElems(data[:0], chunk) })
		wireBytes += len(data)
		f := transport.Frame{Type: transport.FrameBatchBin, Seq: uint64(i/batch + 1), Stream: "photons", Hop: 1, Data: data}
		t.call("transport.frame_encode", req, func() { payload = transport.AppendFrame(payload[:0], &f) })
		var got *transport.Frame
		var err error
		t.call("transport.frame_decode", req, func() { got, err = transport.DecodeFrame(payload) })
		if err == nil {
			t.call("wire.decode", req, func() { _, err = dec.DecodeElems(got.Data) })
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sgbench: trace: wire: %v\n", err)
		}
		t.end(req)
	}
	t.itemsIn["wire.encode"] = float64(len(items))
	t.itemsIn["wire.decode"] = float64(len(items))
	t.wireBytesPerItem = float64(wireBytes) / float64(len(items))
}

// Catalog record kinds of the benchmark's own journal: a subscription
// ("<id> <target>\n<query>") and an unsubscription ("<id>").
const (
	recSub   = 1
	recUnsub = 2
)

// replayCatalog journals the workload's catalog (the population, or for
// churn the full replacement sequence) to a WAL, then times durable.Open
// and Engine.ReplayCatalog over it on a fresh engine. It returns the
// journal's records for the append replays.
func (t *tracer) replayCatalog() ([]durable.Record, error) {
	in := t.in
	eng, err := in.newEng()
	if err != nil {
		return nil, err
	}
	var recs []durable.Record
	eng.SetJournal(func(op core.CatalogOp) {
		switch op.Kind {
		case core.CatalogSubscribe:
			recs = append(recs, durable.Record{Kind: recSub, Data: []byte(op.ID + " " + string(op.Target) + "\n" + op.Query)})
		case core.CatalogUnsubscribe:
			recs = append(recs, durable.Record{Kind: recUnsub, Data: []byte(op.ID)})
		}
	})
	var ids []string
	for i, r := range in.pop {
		sub, err := eng.Subscribe(r.text, r.target, core.StreamSharing)
		if err != nil {
			return nil, err
		}
		ids = append(ids, sub.ID)
		if in.live > 0 && i >= in.live {
			if err := eng.Unsubscribe(ids[0]); err != nil {
				return nil, err
			}
			ids = ids[1:]
		}
	}
	dir, err := workDir("trace-catalog")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, _, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncNone})
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := w.Append(r.Kind, r.Data); err != nil {
			w.Close()
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}

	req := t.request("restart")
	defer t.end(req)
	var got []durable.Record
	t.call("durable.open", req, func() {
		var w2 *durable.WAL
		w2, got, err = durable.Open(durable.Options{Dir: dir, Sync: durable.SyncNone})
		if err == nil {
			err = w2.Close()
		}
	})
	if err != nil {
		return nil, err
	}
	ops := make([]core.CatalogOp, 0, len(got))
	for _, r := range got {
		switch r.Kind {
		case recSub:
			head, query, _ := strings.Cut(string(r.Data), "\n")
			id, target, _ := strings.Cut(head, " ")
			ops = append(ops, core.CatalogOp{Kind: core.CatalogSubscribe, ID: id, Target: network.PeerID(target),
				Strategy: core.StreamSharing, Query: query})
		case recUnsub:
			ops = append(ops, core.CatalogOp{Kind: core.CatalogUnsubscribe, ID: string(r.Data)})
		}
	}
	fresh, err := in.newEng()
	if err != nil {
		return nil, err
	}
	t.call("core.replay", req, func() { err = fresh.ReplayCatalog(ops, nil) })
	if err != nil {
		return nil, err
	}
	if err := sameIDs(fresh.Subscriptions(), ids); err != nil {
		return nil, fmt.Errorf("catalog replay: %w", err)
	}
	return recs, nil
}

// replayAppends times WAL.Append under each sync policy with the
// workload's record sizes: catalog records, and on cluster the batch
// frames its links journal.
func (t *tracer) replayAppends(catalog []durable.Record) error {
	recs := catalog
	if t.workload == "cluster" {
		recs = nil
		var items []*xmlstream.Element
		for _, d := range t.in.docs {
			items = append(items, photonElems(d)...)
		}
		enc := wire.NewBinaryEncoder()
		for i := 0; i < len(items); i += 64 {
			data := enc.EncodeElems(nil, items[i:min(i+64, len(items))])
			f := transport.Frame{Type: transport.FrameBatchBin, Seq: uint64(i + 1), Stream: "photons", Hop: 1, Data: data}
			recs = append(recs, durable.Record{Kind: 1, Data: transport.AppendFrame(nil, &f)})
		}
	}
	// At most 512 records per policy: enough for a median, few enough
	// that the always policy's fsyncs stay a second or two.
	recs = recs[:min(len(recs), 512)]
	for _, p := range []durable.Sync{durable.SyncAlways, durable.SyncInterval, durable.SyncNone} {
		dir, err := workDir("trace-append")
		if err != nil {
			return err
		}
		reg := obs.NewRegistry()
		w, _, err := durable.Open(durable.Options{Dir: dir, Sync: p, Metrics: reg})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		name := "durable.append." + p.String()
		for _, r := range recs {
			req := t.request("append")
			t.call(name, req, func() { err = w.Append(r.Kind, r.Data) })
			t.end(req)
			if err != nil {
				break
			}
		}
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		if t.workload == "share" && p == durable.SyncAlways {
			// share journals nothing itself: its fsync latency is this
			// replay's.
			t.in.counters.Histograms["durable.fsync.seconds"] = reg.Snapshot().Histograms["durable.fsync.seconds"]
		}
	}
	return nil
}

// name returns the operator's layer name, built once per operator so the
// replay itself does not allocate per item.
func (x *execReplay) name(op exec.Operator) string {
	n, ok := x.names[op]
	if !ok {
		n = "exec." + op.Name()
		x.names[op] = n
	}
	return n
}
