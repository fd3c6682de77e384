package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval around a call into a layer. Spans nest on
// the benchmark's single driving goroutine, so a span's children are
// exactly the spans begun and ended while it was open.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	// StartNS and EndNS are wall-clock offsets from the trace start.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// CPUNS is the process CPU time spent while the span was open.
	CPUNS int64 `json:"cpu_ns"`

	cpu0             float64
	childCPU, childW int64
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(), cpu0: cpuSeconds(),
	})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("trace: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.CPUNS = int64((cpuSeconds() - s.cpu0) * 1e9)
	if s.Parent >= 0 {
		p := &t.spans[s.Parent]
		p.childCPU += s.CPUNS
		p.childW += s.EndNS - s.StartNS
	}
}

// layerTotal is the aggregate of all spans of one name.
type layerTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	SelfCPU float64 `json:"self_cpu_s"`
	SelfW   float64 `json:"self_wall_s"`
}

// selfTimes sums each span name's self time: its duration minus the part
// its child spans cover.
func (t *tracer) selfTimes() []layerTotal {
	byName := map[string]*layerTotal{}
	var names []string
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTotal{Name: s.Name}
			byName[s.Name] = lt
			names = append(names, s.Name)
		}
		lt.Count++
		lt.SelfCPU += float64(s.CPUNS-s.childCPU) / 1e9
		lt.SelfW += float64(s.EndNS-s.StartNS-s.childW) / 1e9
	}
	out := make([]layerTotal, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfCPU > out[j].SelfCPU })
	return out
}

// printSelfTimes writes the self-time table with each name's share of
// the total traced CPU.
func (t *tracer) printSelfTimes(w io.Writer) {
	totals := t.selfTimes()
	var all float64
	for _, lt := range totals {
		all += lt.SelfCPU
	}
	fmt.Fprintf(w, "%-34s %6s %12s %7s %12s\n", "span (self time)", "count", "cpu_s", "share", "wall_s")
	for _, lt := range totals {
		share := 0.0
		if all > 0 {
			share = 100 * lt.SelfCPU / all
		}
		fmt.Fprintf(w, "%-34s %6d %12.4f %6.1f%% %12.4f\n", lt.Name, lt.Count, lt.SelfCPU, share, lt.SelfW)
	}
}

// write stores the spans and their self-time totals as JSON.
func (t *tracer) write(path, workloadName string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload string       `json:"workload"`
		Seed     uint64       `json:"seed"`
		Spans    []span       `json:"spans"`
		Self     []layerTotal `json:"self"`
	}{workloadName, seed, t.spans, t.selfTimes()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spanPath is where a traced run writes its spans, inside the checkout's
// build directory.
func spanPath(workloadName string, seed uint64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", workloadName, seed))
}
