package main

import (
	"fmt"
	"math/rand"
	grt "runtime"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/runtime"
	"streamshare/internal/xmlstream"
	"streamshare/sgbench/oracle"
)

// The share workload: the in-process distributed runtime on a 4×4 grid,
// one photon source and a §4 template population planned with stream
// sharing; one long feed is pushed to quiescence per round.
const (
	shareGrid  = 4
	shareSubs  = 32
	shareItems = 6_000
)

// plannedRound is one engine with its population installed, ready to run.
type plannedRound struct {
	eng     *core.Engine
	ids     []string
	catalog []core.CatalogOp
	setup   time.Duration // process CPU time
	subLat  []float64     // ms per Subscribe
}

// installPopulation builds a fresh engine over net, registers the sources
// and subscribes the population directly on the engine, timing each
// Subscribe and the CPU time of the whole set-up. The catalog journal hook
// records the mutations so the round can later be recovered by replay.
func installPopulation(n int, srcs []*source, pop []subReq, cfg core.Config) (*plannedRound, error) {
	start := cpuTime()
	eng, err := newEngine(n, srcs, cfg)
	if err != nil {
		return nil, err
	}
	pr := &plannedRound{eng: eng}
	eng.SetJournal(func(op core.CatalogOp) { pr.catalog = append(pr.catalog, op) })
	for _, r := range pop {
		t0 := time.Now()
		sub, err := eng.Subscribe(r.text, r.target, core.StreamSharing)
		if err != nil {
			return nil, fmt.Errorf("subscribe at %s: %w\n%s", r.target, err, r.text)
		}
		pr.subLat = append(pr.subLat, ms(time.Since(t0)))
		pr.ids = append(pr.ids, sub.ID)
	}
	pr.setup = cpuTime() - start
	return pr, nil
}

// checkCollected compares every subscription's collected results with the
// oracle's evaluation of its query over the feed.
func checkCollected(pop []subReq, ids []string, srcs []*source, collected map[string][]*xmlstream.Element) error {
	feeds := map[string]*source{}
	for _, s := range srcs {
		feeds[s.name] = s
	}
	for i, r := range pop {
		if err := r.q.Check(feeds[r.q.Stream].ps, canonicalAll(collected[ids[i]])); err != nil {
			return fmt.Errorf("%s at %s: %w\n%s", ids[i], r.target, err, r.text)
		}
	}
	return nil
}

// checkCounts compares delivered result counts with the oracle's.
func checkCounts(pop []subReq, ids []string, want []int, got map[string]int) error {
	for i := range pop {
		if got[ids[i]] != want[i] {
			return fmt.Errorf("%s: %d results, oracle %d\n%s", ids[i], got[ids[i]], want[i], pop[i].text)
		}
	}
	return nil
}

func oracleCounts(pop []subReq, srcs []*source) []int {
	feeds := map[string]*source{}
	for _, s := range srcs {
		feeds[s.name] = s
	}
	out := make([]int, len(pop))
	for i, r := range pop {
		out[i] = r.q.Count(feeds[r.q.Stream].ps)
	}
	return out
}

// recoverCatalog rebuilds a round's catalog on a fresh engine by replay and
// checks it recovered the same subscription ids.
func recoverCatalog(n int, srcs []*source, pr *plannedRound, cfg core.Config) (time.Duration, error) {
	start := time.Now()
	eng, err := newEngine(n, srcs, cfg)
	if err != nil {
		return 0, err
	}
	if err := eng.ReplayCatalog(pr.catalog, nil); err != nil {
		return 0, err
	}
	el := time.Since(start)
	subs := eng.Subscriptions()
	if len(subs) != len(pr.ids) {
		return 0, fmt.Errorf("replay recovered %d subscriptions, want %d", len(subs), len(pr.ids))
	}
	for i, s := range subs {
		if s.ID != pr.ids[i] {
			return 0, fmt.Errorf("replay recovered %s at %d, want %s", s.ID, i, pr.ids[i])
		}
	}
	return el, nil
}

// unsubscribeAll removes the population, timing each Unsubscribe.
func unsubscribeAll(eng *core.Engine, ids []string) ([]float64, error) {
	var lat []float64
	for _, id := range ids {
		t0 := time.Now()
		if err := eng.Unsubscribe(id); err != nil {
			return nil, err
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat, nil
}

func runShare(seed int64, dur time.Duration, tr *tracer) (*report, error) {
	src := newSource("photons", peerID(0), seed, shareItems)
	srcs := []*source{src}
	pop := population(rand.New(rand.NewSource(populationSeed)), []string{src.name}, shareSubs, shareGrid*shareGrid)
	want := oracleCounts(pop, srcs)
	feed := map[string][]*xmlstream.Element{src.name: src.items}
	items := float64(len(src.items))
	if tr != nil {
		tr.setInputs(&traceInputs{
			srcs: srcs, pop: pop, docs: [][]oracle.Photon{src.ps}, docSrc: []string{src.name},
			newEng: func() (*core.Engine, error) { return newEngine(shareGrid, srcs, core.Config{}) },
		})
	}

	rep := newReport()
	var s samples
	deadline := time.Now().Add(dur)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		grt.GC()
		pr, err := installPopulation(shareGrid, srcs, pop, core.Config{})
		if err != nil {
			return nil, err
		}
		rep.ops(len(pop))
		s.setup = append(s.setup, pr.setup.Seconds())
		s.sub = append(s.sub, pr.subLat...)

		opts := runtime.DefaultOptions()
		opts.NoSpans = true
		if tr != nil {
			pr.eng.Obs().Latency.SetRate(traceSpanEvery)
			opts.NoSpans = false
		}
		rt := runtime.NewWith(pr.eng, round == 0, opts)
		grt.GC()
		m := startMeter()
		res, err := rt.Run(feed)
		mm := m.stop()
		rep.ops(1)
		if err != nil {
			return nil, fmt.Errorf("run: %w", err)
		}
		s.addRun(mm, items)
		s.netBytes = res.Metrics.TotalBytes() / items
		s.peerLoad = res.Metrics.TotalWork() / items
		if err := checkCounts(pop, pr.ids, want, res.Results); err != nil {
			return nil, err
		}
		if round == 0 {
			if err := checkCollected(pop, pr.ids, srcs, res.Collected); err != nil {
				return nil, err
			}
			twin, err := installPopulation(shareGrid, srcs, pop, core.Config{})
			if err != nil {
				return nil, err
			}
			sim, err := twin.eng.Simulate(feed, false)
			if err != nil {
				return nil, err
			}
			if err := metricsEqual(sim.Metrics, res.Metrics); err != nil {
				return nil, fmt.Errorf("runtime vs simulator: %w", err)
			}
		}
		if tr != nil && round == 0 {
			tr.runtimeCounters(pr.eng, rt, mm, items)
		}

		rec, err := recoverCatalog(shareGrid, srcs, pr, core.Config{})
		rep.ops(1)
		if err != nil {
			return nil, fmt.Errorf("catalog replay: %w", err)
		}
		s.restart = append(s.restart, rec.Seconds())
		lat, err := unsubscribeAll(pr.eng, pr.ids)
		rep.ops(len(pr.ids))
		if err != nil {
			return nil, err
		}
		s.unsub = append(s.unsub, lat...)
	}
	s.fill(rep)
	s.logUnbounded()
	return rep, nil
}
