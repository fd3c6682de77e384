package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
)

// runChildren runs each requested workload repeat times on the same
// seed, each run in its own child process (so peak RSS and live heap
// describe one run), and prints every metric's median and quartiles over
// the runs: the run-to-run spread a bound must cover, with the work
// itself held fixed. A sweep over seeds is separate --seed invocations. The
// last line is a result whose metrics are the medians, named
// "<workload>.<metric>" when more than one workload ran.
func runChildren(name string, seed uint64, seconds float64, traced bool, repeat int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	names := []string{name}
	if name == "all" {
		names = workloadNames()
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range names {
		samples := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < repeat; i++ {
			var out bytes.Buffer
			cmd := exec.Command(exe, "--workload", wl, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", trace)
			cmd.Stdout = io.MultiWriter(&out, stderr)
			cmd.Stderr = stderr
			runErr := cmd.Run() // waits for the child to exit
			res, err := lastResult(out.Bytes())
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s run %d: %v (exit: %v)\n", wl, i+1, err, runErr)
				return 1
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for k, m := range res.Metrics {
				samples[k] = append(samples[k], m.Value)
				units[k] = m.Unit
			}
		}
		keys := make([]string, 0, len(samples))
		for k := range samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(stdout, "%s over %d runs of seed %d\n", wl, repeat, seed)
		fmt.Fprintf(stdout, "  %-36s %14s %14s %14s %8s %s\n", "metric", "median", "q1", "q3", "iqr/med", "unit")
		for _, k := range keys {
			med := median(samples[k])
			q1, q3 := quartiles(samples[k])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Fprintf(stdout, "  %-36s %14.4f %14.4f %14.4f %7.2f%% %s\n", k, med, q1, q3, 100*spread, units[k])
			key := k
			if len(names) > 1 {
				key = wl + "." + k
			}
			total.Metrics[key] = metric{med, units[k]}
		}
	}
	if err := printResult(stdout, total); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !total.Correct {
		return 1
	}
	return 0
}

// lastResult parses the result line a child printed last.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}
