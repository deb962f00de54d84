// Command benchmark is the repository's benchmark. It runs one named
// workload against the hgw library and the hgwd service in this
// process, checks every operation's output, and prints one JSON result
// line as the last line of standard output:
//
//	go build -o hgwbench . && ./hgwbench --workload fleet_udp --seed 1 --seconds 20 --trace 0
//
// (run.sh builds and runs it with every build file kept under
// .bench_build/.) With --trace 0 the result carries the end-to-end
// metrics, measured untraced; with --trace 1 it carries the per-layer
// metrics of a separate traced run. README.md explains the workloads
// and which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time" //hgwlint:allowfile detlint the benchmark times the program in host wall time by design; it runs outside the equal-seed contract
)

// metric is one reported value. Samples is how many samples a median
// was taken over; it is printed on the samples line, not in the result.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// setMedian reports the median of xs and remembers how many samples it
// had.
func (m metrics) setMedian(name string, xs []float64, unit string) {
	m[name] = metric{Value: median(xs), Unit: unit, Samples: len(xs)}
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts checked operations. An operation whose output check
// fails is a failed operation; the run is correct only if none failed.
type tally struct {
	attempted, failed int
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "benchmark: failed check: %v\n", err)
	}
}

// workload is one benchmark input set.
type workload interface {
	// params records the workload's parameters for the configuration
	// line.
	params() map[string]any
	// setUp brings the workload's program state up from nothing once.
	// It is timed and repeated; see setupReps.
	setUp() error
	// run measures untraced operations for the given duration and
	// reports the end-to-end metrics other than setup_s and
	// peak_rss_mb. rss samples memory over the whole window unless run
	// holds it earlier.
	run(d time.Duration, t *tally, m metrics, rss *rssPeaks) error
	// trace runs the workload once untraced and once traced and reports
	// its per-layer metrics, including the tracing overhead.
	trace(tr *tracer, t *tally, m metrics) error
	// close releases what setUp left running.
	close()
}

// setupReps is how many times a run sets the workload up; setup_s is
// the median.
const setupReps = 7

var workloads = map[string]func(seed int64) workload{
	"fleet_udp": newFleetUDP,
	"tcp_bulk":  newTCPBulk,
	"inventory": newInventory,
	"hgwd_mix":  newHGWDMix,
}

func main() {
	name := flag.String("workload", "", "workload: fleet_udp | tcp_bulk | inventory | hgwd_mix")
	seed := flag.Int64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := flag.Int("seconds", 20, "measured duration in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, traced bool) error {
	mk, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if d <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	cfg, err := configuration(name, seed, d, traced)
	if err != nil {
		return err
	}
	var t tally
	m := metrics{}
	if traced {
		if err := runTraced(name, seed, cfg, &t, m); err != nil {
			return err
		}
	} else {
		w := mk(seed)
		cfg["params"] = w.params()
		setup, err := timeSetup(w)
		if err != nil {
			return err
		}
		defer w.close()
		rss := startRSSPeaks()
		err = w.run(d, &t, m, rss)
		peak := rss.finish()
		if err != nil {
			return err
		}
		m.set("setup_s", setup.Seconds(), "s")
		m.set("peak_rss_mb", peak, "MB")
	}
	line, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("config %s\n", line)
	samples := map[string]int{}
	for name, v := range m {
		if v.Samples > 0 {
			samples[name] = v.Samples
		}
	}
	if len(samples) > 0 {
		line, err := json.Marshal(samples)
		if err != nil {
			return err
		}
		fmt.Printf("samples %s\n", line)
	}
	out, err := json.Marshal(result{Correct: t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted, Failed: t.failed, Metrics: m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// timeSetup sets w up setupReps times and returns the median; every
// repetition but the last is released again.
func timeSetup(w workload) (time.Duration, error) {
	reps := make([]float64, setupReps)
	for i := range reps {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		if err := w.setUp(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		reps[i] = float64(time.Since(start))
	}
	return time.Duration(median(reps)), nil
}

// runTraced runs every workload's traced pass, so a traced run reports
// every per-layer metric whichever workload it names, then the layer
// fixtures. The named workload's pass runs first.
func runTraced(name string, seed int64, cfg map[string]any, t *tally, m metrics) error {
	order := []string{name}
	for _, n := range []string{"fleet_udp", "tcp_bulk", "inventory", "hgwd_mix"} {
		if n != name {
			order = append(order, n)
		}
	}
	tr := newTracer()
	params := map[string]any{}
	for _, n := range order {
		w := workloads[n](seed)
		params[n] = w.params()
		if err := w.setUp(); err != nil {
			return fmt.Errorf("%s: set-up: %w", n, err)
		}
		err := w.trace(tr, t, m)
		w.close()
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
	}
	cfg["params"] = params
	if err := runFixtures(tr, t, m); err != nil {
		return err
	}
	return tr.write(name, seed, cfg, m)
}
