package main

import (
	"fmt"
	"math/rand"
	"os"
	grt "runtime"
	"sync"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/durable"
	"streamshare/internal/network"
	"streamshare/internal/runtime"
	"streamshare/internal/xmlstream"
	"streamshare/sgbench/oracle"
)

// The cluster workload: the share template mix with a smaller population
// relative to the feed, its peers split across two runtime.Cluster nodes
// meshed over loopback TCP in this process, binary codec with schema-seeded
// dictionaries, durable links under durable.SyncInterval, and a reliable
// session at both nodes.
const (
	clusterGrid  = 4
	clusterSubs  = 16
	clusterItems = 6_000
)

var clusterNodes = []string{"n0", "n1"}

// mesh is one two-node cluster with its durable link directories.
type mesh struct {
	dirs  [2]string
	nodes [2]*runtime.Cluster
	seed  []string
}

// open starts both nodes over the mesh's directories ("n0" dials "n1")
// and waits until they are connected.
func (m *mesh) open(regs [2]*core.Engine) error {
	opts := func(i int, nodes map[string]string) runtime.ClusterOptions {
		return runtime.ClusterOptions{
			Node: clusterNodes[i], Nodes: nodes, SeedNames: m.seed,
			DataDir: m.dirs[i], DurableSync: durable.SyncInterval,
			Metrics:      regs[i].Obs().Metrics,
			WireObserver: runtime.WireMetricsObserver(regs[i].Obs().Metrics),
		}
	}
	c1, err := runtime.NewCluster(opts(1, map[string]string{"n1": "127.0.0.1:0", "n0": ""}))
	if err != nil {
		return err
	}
	c0, err := runtime.NewCluster(opts(0, map[string]string{"n0": "127.0.0.1:0", "n1": c1.Addr()}))
	if err != nil {
		c1.Close() //nolint:errcheck // the open error wins
		return err
	}
	m.nodes = [2]*runtime.Cluster{c0, c1}
	if err := c0.WaitConnected(30 * time.Second); err != nil {
		m.close()
		return err
	}
	return c1.WaitConnected(30 * time.Second)
}

func (m *mesh) close() error {
	var first error
	for i, c := range m.nodes {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		m.nodes[i] = nil
	}
	return first
}

func (m *mesh) remove() {
	for _, d := range m.dirs {
		os.RemoveAll(d) //nolint:errcheck // scratch state under the build directory
	}
}

// clusterRound is one planned two-node run.
type clusterRound struct {
	pr    [2]*plannedRound
	sess  [2]*runtime.Session
	mesh  *mesh
	setup time.Duration // process CPU time
}

func setupCluster(srcs []*source, pop []subReq, seedNames []string) (*clusterRound, error) {
	grt.GC()
	start := cpuTime()
	cr := &clusterRound{mesh: &mesh{seed: seedNames}}
	for i := range cr.pr {
		pr, err := installPopulation(clusterGrid, srcs, pop, core.Config{Reliable: true})
		if err != nil {
			return nil, err
		}
		cr.pr[i] = pr
		cr.sess[i] = runtime.NewSession(runtime.SessionOptions{})
		dir, err := workDir("cluster-" + clusterNodes[i])
		if err != nil {
			return nil, err
		}
		cr.mesh.dirs[i] = dir
	}
	if err := cr.mesh.open([2]*core.Engine{cr.pr[0].eng, cr.pr[1].eng}); err != nil {
		cr.mesh.remove()
		return nil, err
	}
	cr.setup = cpuTime() - start
	return cr, nil
}

// run executes the feed on both nodes at once and merges their results.
func (cr *clusterRound) run(feed map[string][]*xmlstream.Element, collect bool, spans bool) (*runtime.Result, [2]*runtime.Runtime, error) {
	var rts [2]*runtime.Runtime
	for i := range rts {
		opts := runtime.DefaultOptions()
		opts.NoSpans = !spans
		opts.Session, opts.Cluster = cr.sess[i], cr.mesh.nodes[i]
		rts[i] = runtime.NewWith(cr.pr[i].eng, collect, opts)
	}
	var res [2]*runtime.Result
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	for i := range rts {
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = rts[i].Run(feed)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, rts, fmt.Errorf("node %s: %w", clusterNodes[i], err)
		}
	}
	merged := &runtime.Result{Metrics: network.NewMetrics(), Results: map[string]int{}}
	if collect {
		merged.Collected = map[string][]*xmlstream.Element{}
	}
	for _, r := range res {
		merged.Metrics.Merge(r.Metrics)
		for id, n := range r.Results {
			merged.Results[id] += n
		}
		for id, items := range r.Collected {
			if _, dup := merged.Collected[id]; dup && len(items) > 0 {
				return nil, rts, fmt.Errorf("%s delivered on both nodes", id)
			}
			if len(items) > 0 {
				merged.Collected[id] = items
			}
		}
	}
	return merged, rts, nil
}

// settled checks that nothing was dropped and nothing is left unacked in
// either node's session.
func (cr *clusterRound) settled(rts [2]*runtime.Runtime) error {
	for i, rt := range rts {
		if d := rt.Dropped(); d != 0 {
			return fmt.Errorf("node %s dropped %d items", clusterNodes[i], d)
		}
		c := cr.pr[i].eng.Obs().Metrics.Snapshot().Counters
		if n := c["runtime.retained.items"] + c["runtime.dropped.messages"]; n != 0 {
			return fmt.Errorf("node %s retained or dropped %v items", clusterNodes[i], n)
		}
		for _, ch := range cr.sess[i].ChannelStates() {
			if ch.ReplayDepth != 0 || ch.Broken {
				return fmt.Errorf("node %s retains %s", clusterNodes[i], ch)
			}
		}
	}
	return nil
}

func runCluster(seed int64, dur time.Duration, tr *tracer) (*report, error) {
	src := newSource("photons", peerID(0), seed, clusterItems)
	srcs := []*source{src}
	pop := population(rand.New(rand.NewSource(populationSeed)), []string{src.name}, clusterSubs, clusterGrid*clusterGrid)
	want := oracleCounts(pop, srcs)
	feed := map[string][]*xmlstream.Element{src.name: src.items}
	items := float64(len(src.items))
	// The codec dictionaries are seeded with the schema vocabulary of a feed
	// sample, as sgd seeds them.
	seedNames := xmlstream.InferSchema(src.items[:8]).Names()
	if tr != nil {
		tr.setInputs(&traceInputs{
			srcs: srcs, pop: pop, docs: [][]oracle.Photon{src.ps}, docSrc: []string{src.name},
			newEng: func() (*core.Engine, error) { return newEngine(clusterGrid, srcs, core.Config{Reliable: true}) },
		})
	}

	rep := newReport()
	var s samples
	deadline := time.Now().Add(dur)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		cr, err := setupCluster(srcs, pop, seedNames)
		if err != nil {
			return nil, err
		}
		rep.ops(2 * len(pop))
		s.setup = append(s.setup, cr.setup.Seconds())
		s.sub = append(s.sub, cr.pr[0].subLat...)
		s.sub = append(s.sub, cr.pr[1].subLat...)
		if tr != nil {
			for _, pr := range cr.pr {
				pr.eng.Obs().Latency.SetRate(traceSpanEvery)
			}
		}
		before := linkTotals(cr.mesh)
		grt.GC()
		m := startMeter()
		res, rts, err := cr.run(feed, round == 0, tr != nil)
		mm := m.stop()
		rep.ops(1)
		if err == nil {
			err = cr.settled(rts)
		}
		if err == nil {
			err = checkCounts(pop, cr.pr[0].ids, want, res.Results)
		}
		if err == nil && round == 0 {
			err = checkCollected(pop, cr.pr[0].ids, srcs, res.Collected)
		}
		if err != nil {
			cr.mesh.close() //nolint:errcheck // the run error wins
			cr.mesh.remove()
			return nil, err
		}
		s.addRun(mm, items)
		s.netBytes = res.Metrics.TotalBytes() / items
		s.peerLoad = res.Metrics.TotalWork() / items
		if tr != nil && round == 0 {
			tr.clusterCounters(cr, rts, linkTotals(cr.mesh).minus(before), mm, items)
		}

		// Restart: both nodes close and come back over their link journals.
		if err := cr.mesh.close(); err != nil {
			cr.mesh.remove()
			return nil, err
		}
		t0 := time.Now()
		err = cr.mesh.open([2]*core.Engine{cr.pr[0].eng, cr.pr[1].eng})
		s.restart = append(s.restart, time.Since(t0).Seconds())
		rep.ops(1)
		if err == nil {
			err = cr.mesh.close()
		}
		cr.mesh.remove()
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		lat, err := unsubscribeAll(cr.pr[0].eng, cr.pr[0].ids)
		rep.ops(len(pop))
		if err != nil {
			return nil, err
		}
		s.unsub = append(s.unsub, lat...)
	}
	s.fill(rep)
	s.logUnbounded()
	return rep, nil
}

// linkStats sums both nodes' link counters.
type linkStats struct {
	bytes, frames, recvFrames, waits uint64
}

func linkTotals(m *mesh) linkStats {
	var t linkStats
	for _, c := range m.nodes {
		for _, st := range c.Stats() {
			t.bytes += st.BytesSent
			t.frames += st.FramesSent
			t.recvFrames += st.FramesRecv
			t.waits += st.SendWaits
		}
	}
	return t
}

func (a linkStats) minus(b linkStats) linkStats {
	return linkStats{a.bytes - b.bytes, a.frames - b.frames, a.recvFrames - b.recvFrames, a.waits - b.waits}
}
