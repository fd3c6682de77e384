// Command perfbench measures the spinngo simulator's host cost on two
// generated workloads that each load different layers: CPU per
// simulated bio-second, set-up, snapshot and restore CPU, image size
// and memory. It checks every workload's outputs against properties
// computed from the workload document, and in -trace mode records a
// span around each layer boundary and runs per-layer harnesses.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload cortex-plastic --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//	bash perfbench/run.sh --workload fabric-storm --seed 1 --repeat 5
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (each a value with its unit).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// maxProcs caps the Go scheduler: no workload uses more than two
// workers, and the reference host has two CPUs.
const maxProcs = 2

// setProcs gives a run one scheduler slot per simulation worker, capped
// at maxProcs and the host's CPUs. A spare slot would not speed up a
// one-worker simulation; it would only let the collector's idle-time
// mark workers burn CPU whose amount depends on scheduling, which made
// CPU figures noisier.
func setProcs(workers int) {
	n := min(max(workers, 1), maxProcs, runtime.NumCPU())
	runtime.GOMAXPROCS(n)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_cpu_s_per_bio_s", "s/s"},
	{"snapshot_s", "s"},
	{"restore_s", "s"},
	{"snapshot_mb", "MB"},
	{"live_heap_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload documents are generated from")
	seconds := fs.Float64("seconds", 10, "wall-clock budget for the timed rounds of one run")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	repeat := fs.Int("repeat", 1, "runs per workload, all on the same seed; more than one prints medians and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive and -repeat at least 1\n")
		return 2
	}
	if *name != "all" && specs[*name] == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	setProcs(maxProcs)

	if *name == "all" || *repeat > 1 {
		// Each run is its own process, so peak RSS and the heap belong
		// to one workload run alone.
		return runChildren(*name, *seed, *seconds, *trace == 1, *repeat, stdout, stderr)
	}
	res, err := runOne(specs[*name], *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func printResult(w io.Writer, res *result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runOne measures one workload on one seed and prints its figures.
func runOne(sp *spec, seed uint64, seconds float64, traced bool, out io.Writer) (*result, error) {
	r, err := newRunner(sp, seed, seconds, traced, out)
	if err != nil {
		return nil, err
	}
	setProcs(r.wl.Machine.Workers)
	fmt.Fprintf(out, "workload %s seed %d: %s\n", sp.name, seed, sp.why)
	r.run()

	res := &result{Attempted: r.attempted(), Failed: r.failed(), Metrics: map[string]metric{}}
	missing := r.missing()
	for _, name := range missing {
		fmt.Fprintf(out, "MISSING samples for %s\n", name)
	}
	// A run is correct only when nothing it attempted failed and every
	// metric was measured: a run cut short would otherwise report zeros,
	// which read as gains.
	res.Correct = res.Failed == 0 && len(missing) == 0
	e2e := r.endToEnd()
	fmt.Fprintf(out, "%-28s %14s %-6s %14s\n", "metric", "cpu", "unit", "wall (reference)")
	for _, m := range endToEnd {
		ref := ""
		if w, ok := r.wallReference(m.name); ok {
			ref = fmt.Sprintf("%14.4f", w)
		}
		fmt.Fprintf(out, "%-28s %14.4f %-6s %s\n", m.name, e2e[m.name], m.unit, ref)
	}
	for _, k := range opKinds {
		fmt.Fprintf(out, "ops %-9s attempted %4d failed %d\n", k, r.ops[k].attempted, r.ops[k].failed)
	}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		return res, nil
	}
	if err := r.layers(); err != nil {
		return nil, err
	}
	r.tr.printSelfTimes(out)
	path := spanPath(sp.name, seed)
	if err := r.tr.write(path, sp.name, seed); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	for _, m := range r.perLayer(e2e) {
		fmt.Fprintf(out, "%-36s %16.4f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metric{m.value, m.unit}
	}
	return res, nil
}

// endToEnd computes the end-to-end metrics from the run's samples.
func (r *runner) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":             median(r.setupCPU),
		"run_cpu_s_per_bio_s": median(r.runCPU),
		"snapshot_s":          median(r.snapCPU),
		"restore_s":           median(r.restoreCPU),
		"snapshot_mb":         float64(r.imageBytes) / 1e6,
		"live_heap_mb":        r.liveHeap / 1e6,
		"peak_rss_mb":         peakRSSBytes() / 1e6,
	}
}

// missing names the end-to-end metrics the run has no sample for: a run
// cut short by a failed set-up, chunk, snapshot or restore.
func (r *runner) missing() []string {
	var out []string
	for name, ok := range map[string]bool{
		"setup_s":             len(r.setupCPU) > 0,
		"run_cpu_s_per_bio_s": len(r.runCPU) > 0,
		"snapshot_s":          len(r.snapCPU) > 0,
		"restore_s":           len(r.restoreCPU) > 0,
		"snapshot_mb":         r.imageBytes > 0,
		"live_heap_mb":        r.liveHeap > 0,
	} {
		if !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// wallReference is the wall-clock figure printed beside a CPU metric.
func (r *runner) wallReference(name string) (float64, bool) {
	switch name {
	case "setup_s":
		return median(r.setupWall), true
	case "run_cpu_s_per_bio_s":
		return median(r.runWall), true
	}
	return 0, false
}
