// Command sgbench is the StreamGlobe benchmark. It runs one named workload
// from a seed and prints, as the last line of its output, one JSON object
// with the operations attempted and failed and every metric by name and
// unit:
//
//	sgbench --workload share --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it turns
// on the program's 1-in-16 provenance sampling, replays the workload's
// inputs through each layer's public calls, records its own spans around
// those calls and reports the per-layer metrics, writing the layer table
// and the span file under .bench_build/trace/. Every run checks the
// program's outputs against the oracle package and has a deadline: a run
// that passes it dumps every goroutine stack and is reported failed.
//
//	sgbench steady --workload churn --runs 10
//
// runs a workload repeatedly, one process per seed, and prints each
// metric's median and quartiles against its bound in BENCHMARK.json.
//
//	sgbench refeed
//
// runs the churn workload's reliable-refeed operation alone; churn runs it
// this way, in a child process, once per round. It exits 0 when the
// operation succeeds, 4 when its second FEED hangs and 1 on any other error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"time"
)

// report is one run's outcome.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) ops(n int)  { r.Attempted += n }
func (r *report) fail(n int) { r.Attempted += n; r.Failed += n }

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// samples gathers a run's raw measurements; fill turns them into the
// end-to-end metrics every workload reports.
type samples struct {
	setup   []float64 // s of process CPU per set-up
	sub     []float64 // ms per subscribe
	unsub   []float64 // ms per unsubscribe
	feed    []float64 // ms per feed pushed to quiescence
	restart []float64 // s per recovery

	itemsPerS, cpuPerItem, allocPerItem []float64

	netBytes, peerLoad float64 // modeled, per source item
}

// addRun records one timed feed of the given number of source items.
func (s *samples) addRun(m measured, items float64) {
	s.feed = append(s.feed, ms(m.wall))
	s.itemsPerS = append(s.itemsPerS, items/m.wall.Seconds())
	s.cpuPerItem = append(s.cpuPerItem, float64(m.cpu.Microseconds())/items)
	s.allocPerItem = append(s.allocPerItem, float64(m.alloc)/items)
}

func (s *samples) fill(r *report) {
	r.set("setup_s", "s", median(s.setup))
	r.set("cpu_us_per_item", "us/item", median(s.cpuPerItem))
	r.set("alloc_bytes_per_item", "B/item", median(s.allocPerItem))
	r.set("net_bytes_per_item", "B/item", s.netBytes)
	r.set("peer_load_per_item", "units/item", s.peerLoad)
	r.set("subscribe_p50_ms", "ms", quantile(s.sub, 0.5))
	r.set("unsubscribe_p50_ms", "ms", quantile(s.unsub, 0.5))
}

// logUnbounded prints, on standard error, the wall-clock figures the run
// measured but BENCHMARK.json does not bound: on this class of 2-vCPU
// virtual machine their run-to-run spread exceeds any usable bound (see
// sgbench/README.md), so they are shown, not judged.
func (s *samples) logUnbounded() {
	fmt.Fprintf(os.Stderr, "sgbench: unbounded: items_per_s %.6g, feed_p50_ms %.6g, feed_p90_ms %.6g (%d feeds), subscribe_p99_ms %.6g (%d subscribes), restart_s %.6g (%d restarts)\n",
		median(s.itemsPerS), quantile(s.feed, 0.5), quantile(s.feed, 0.9), len(s.feed), quantile(s.sub, 0.99), len(s.sub),
		median(s.restart), len(s.restart))
}

var workloads = map[string]func(seed int64, dur time.Duration, tr *tracer) (*report, error){
	"share":   runShare,
	"cluster": runCluster,
	"churn":   runChurn,
}

// deadlineFor bounds one run: the measured seconds plus room for set-up,
// checks and the traced replays, never past the 180 s a run may take.
func deadlineFor(seconds int) time.Duration {
	return min(60*time.Second+time.Duration(6*seconds)*time.Second, 170*time.Second)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "refeed" {
		// The reliable-refeed operation alone: the reproducer, and the child
		// process churn runs it in.
		if err := reliableRefeed(); err != nil {
			fmt.Println("reliable-refeed failed:", err)
			if errors.Is(err, errRefeedHang) {
				os.Exit(refeedHangCode)
			}
			os.Exit(1)
		}
		fmt.Println("reliable-refeed ok")
		return
	}
	workload := flag.String("workload", "", "workload to run: share, cluster or churn")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "sgbench: need --workload %v, --seconds ≥ 1, --trace 0|1\n", names)
		os.Exit(2)
	}

	// The hang guard: a run past its deadline dumps every goroutine's
	// stack and is reported failed instead of never ending.
	guard := time.AfterFunc(deadlineFor(*seconds), func() {
		fmt.Fprintf(os.Stderr, "sgbench: %s seed %d passed its %v deadline; goroutines:\n",
			*workload, *seed, deadlineFor(*seconds))
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) //nolint:errcheck // diagnostics
		printReport(&report{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		os.Exit(3)
	})

	dur := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if *trace == 0 {
		rep, err = run(*seed, dur, nil)
	} else {
		// Half the run untraced, half traced: the difference is the
		// tracing overhead. The layer replays follow.
		var untraced, traced *report
		untraced, err = run(*seed, dur/2, nil)
		if err == nil {
			tr := newTracer(*workload, *seed)
			if traced, err = run(*seed, dur/2, tr); err == nil {
				rep, err = tr.finish(untraced, traced)
			}
		}
	}
	guard.Stop()
	if err != nil {
		// A check that failed, or a workload that could not run: no result
		// stands, so the run is reported failed.
		fmt.Fprintf(os.Stderr, "sgbench: %s seed %d: %v\n", *workload, *seed, err)
		printReport(&report{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		os.Exit(1)
	}
	printReport(rep)
}

func printReport(r *report) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sgbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
