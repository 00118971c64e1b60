package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// specPath is the benchmark definition, read from the checkout's root,
// where sgbench/run.sh runs the benchmark.
const specPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first, second and third quartiles of vs as
// Python's statistics.quantiles(vs, n=4) computes them (the exclusive
// method), the definition the steadiness check is stated in.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// steady runs one workload once per seed, each run in its own process,
// and prints every end-to-end metric's median and quartiles against its
// bound in BENCHMARK.json, with seeds 1 to --runs. It returns the exit
// code: 1 when a run fails or a spread exceeds its bound.
func steady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "runs, one per seed")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sgbench steady: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "sgbench steady: %s: %v\n", specPath, err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sgbench steady: %v\n", err)
		return 2
	}

	values := map[string][]float64{}
	var failShares []string
	for i := 0; i < *runs; i++ {
		seed := int64(i + 1)
		cmd := exec.Command(self, "--workload", *workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sgbench steady: %s seed %d: %v\n", *workload, seed, err)
			return 1
		}
		var rep report
		if err := json.Unmarshal(lastLine(out), &rep); err != nil || !rep.Correct {
			fmt.Fprintf(os.Stderr, "sgbench steady: %s seed %d: incorrect or unreadable result\n", *workload, seed)
			return 1
		}
		failShares = append(failShares, fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted))
		var line strings.Builder
		for _, e := range spec.EndToEnd {
			if m, ok := rep.Metrics[e.Name]; ok {
				values[e.Name] = append(values[e.Name], m.Value)
				fmt.Fprintf(&line, " %s=%.4g", e.Name, m.Value)
			}
		}
		fmt.Fprintf(os.Stderr, "sgbench steady: %s seed %d:%s\n", *workload, seed, line.String())
	}

	code := 0
	fmt.Printf("%s: %d runs of %d s, seeds 1..%d; failed/attempted %s\n",
		*workload, *runs, spec.RunSeconds, *runs, strings.Join(failShares, " "))
	fmt.Printf("%-22s %14s %14s %14s %8s %7s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, e := range spec.EndToEnd {
		vs := values[e.Name]
		if len(vs) == 0 {
			fmt.Printf("%-22s missing\n", e.Name)
			code = 1
			continue
		}
		q1, q2, q3 := quartiles(vs)
		spread := (q3 - q1) / q2
		verdict := "ok"
		switch {
		case spread > e.Bound:
			verdict, code = "OVER BOUND", 1
		case spread > e.Bound/3:
			verdict = "over a third of bound"
		}
		fmt.Printf("%-22s %14.6g %14.6g %14.6g %8.4f %7.3f %s\n", e.Name, q1, q2, q3, spread, e.Bound, verdict)
	}
	return code
}

// lastLine returns the last non-empty line of a run's standard output.
func lastLine(out []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last []byte
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	return last
}
