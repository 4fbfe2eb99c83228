// Command lcmsrbench is the repository's benchmark. It drives the LCMSR
// query service through the public repro API on one of its workloads
// (explore, disk-zipf, churn; churn-live reproduces a known defect),
// checks every answer, and prints the end-to-end metrics. With --trace 1
// it times the calls into each layer of the read and write paths instead
// and prints the per-layer metrics. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {"qps": {"value": 812.5, "unit": "1/s"}, ...}}
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash lcmsrbench/run.sh --workload explore --seed 7 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the span format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metrics maps a metric name to its value and unit.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func main() {
	name := flag.String("workload", "", "explore, disk-zipf, churn or churn-live")
	seed := flag.Int64("seed", 1, "seed of the generated database, queries and updates")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: lcmsrbench --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	dir := filepath.Join(".bench_build", "lcmsrbench", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	m, b, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	fmt.Printf("fail_ratio: %.6f (%d of %d operations)\n", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, m})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func run(w workload, seed int64, dur time.Duration, traced bool, dir string) (metrics, *bench, error) {
	b := &bench{w: w, seed: seed, dur: dur, dir: dir}
	nops := 0
	if w.writeRate > 0 {
		nops = 2 * int(w.writeRate*dur.Seconds())
	}
	if err := b.prepare(nops, w.serialOps()); err != nil {
		return nil, b, err
	}
	var m metrics
	var err error
	if traced {
		m, err = b.runTraced()
	} else {
		m, err = b.runEndToEnd()
	}
	return m, b, err
}

var started = time.Now()

// logf prints a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lcmsrbench:", err)
	os.Exit(1)
}
