package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"

	"spinngo"
	"spinngo/internal/workload"
)

// Every timed sample starts right after a forced collection, so
// collector work owed by earlier phases does not land in it.
const (
	// minRounds is the fewest rounds one run makes, so every timed
	// figure is a median of at least three samples however long a round
	// takes.
	minRounds = 3
	// shortSampleCPU is the least CPU one snapshot sample spends in
	// Snapshot calls: it repeats the call until they have used that much.
	shortSampleCPU = 1.0
)

// Operation kinds counted per run, in print order.
var opKinds = []string{"setup", "chunk", "snapshot", "restore", "check"}

type opCount struct{ attempted, failed int }

// runner measures one workload on one seed.
type runner struct {
	sp      *spec
	wl      *workload.Workload
	doc     []byte
	seed    uint64
	seconds float64
	tr      *tracer // nil for an untraced run
	log     io.Writer

	ops      map[string]*opCount
	failures []string

	setupCPU, setupWall []float64
	runCPU, runWall     []float64 // per simulated bio-second
	snapCPU, restoreCPU []float64
	imageBytes          int
	imageSum            [32]byte
	liveHeap            float64

	// Counts of the last round's run phase and of set-up.
	runEvents, runHandoffs, runWindows, runMallocs uint64
	setupEvents                                    uint64

	// Traced-path figures: the step-by-step set-up's parts.
	bootCPU, loadCPU float64
	tableEntries     int
	fillCPU          float64
	compiled         *compiled
	harness          harnessFigures
}

func newRunner(sp *spec, seed uint64, seconds float64, traced bool, log io.Writer) (*runner, error) {
	r := &runner{sp: sp, seed: seed, seconds: seconds, log: log, ops: map[string]*opCount{}}
	for _, k := range opKinds {
		r.ops[k] = &opCount{}
	}
	if traced {
		r.tr = newTracer()
	}
	s := r.tr.begin("workload.parse")
	doc, wl, err := document(sp, seed)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	r.doc, r.wl = doc, wl
	return r, nil
}

// op counts one attempted operation of a kind and reports whether it
// succeeded; a failure is logged and counted.
func (r *runner) op(kind string, err error) bool {
	c := r.ops[kind]
	c.attempted++
	if err != nil {
		c.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", kind, err))
		fmt.Fprintf(r.log, "FAILED %s: %v\n", kind, err)
		return false
	}
	return true
}

// check counts one output check; a failed check fails the run.
func (r *runner) check(name string, ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("%s: "+format, append([]any{name}, args...)...)
	}
	r.op("check", err)
}

func (r *runner) attempted() (n int) {
	for _, c := range r.ops {
		n += c.attempted
	}
	return n
}

func (r *runner) failed() (n int) {
	for _, c := range r.ops {
		n += c.failed
	}
	return n
}

func (r *runner) bioSeconds() float64 { return float64(r.wl.Run.BioMS) / 1000 }

// setup builds the workload's machine, timing it. The traced run's first
// set-up goes step by step so each step gets a span.
func (r *runner) setup(stepwise bool) (*spinngo.Machine, error) {
	runtime.GC()
	s := r.tr.begin("setup")
	defer r.tr.end(s)
	mt := startMeter()
	var m *spinngo.Machine
	var err error
	if stepwise {
		m, err = r.setupStepwise()
	} else {
		m, err = spinngo.PrepareWorkload(r.wl)
	}
	cpu, wall := mt.stop()
	if !r.op("setup", err) {
		return nil, err
	}
	r.setupCPU = append(r.setupCPU, cpu)
	r.setupWall = append(r.setupWall, wall)
	r.setupEvents = m.SimStats().Events
	return m, nil
}

// setupStepwise is PrepareWorkload spelled out through the public API:
// NewMachine+Boot, Load, then arming stimuli and campaign.
func (r *runner) setupStepwise() (*spinngo.Machine, error) {
	mt := startMeter()
	s := r.tr.begin("machine.boot")
	m, err := spinngo.NewMachine(machineConfig(&r.wl.Machine))
	if err != nil {
		r.tr.end(s)
		return nil, err
	}
	boot, err := m.Boot()
	r.tr.end(s)
	r.bootCPU, _ = mt.stop()
	if err != nil {
		m.Close()
		return nil, err
	}
	w, h := r.wl.Machine.Width, r.wl.Machine.Height
	r.check("boot.chips", boot.Chips == w*h, "BootReport.Chips %d, want %d", boot.Chips, w*h)

	mt = startMeter()
	s = r.tr.begin("machine.load")
	model, err := publicModel(r.wl)
	var load *spinngo.LoadReport
	if err == nil {
		load, err = m.Load(model)
	}
	r.tr.end(s)
	r.loadCPU, _ = mt.stop()
	if err != nil {
		m.Close()
		return nil, err
	}
	r.tableEntries = load.TableEntries

	s = r.tr.begin("workload.arm")
	err = arm(m, r.wl)
	r.tr.end(s)
	if err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// runChunks runs the workload's chunk schedule on m, timing only the Run
// calls. When midAt > 0 it snapshots the machine after that many chunks,
// resumes the image on the other worker count and partition to the end
// of the schedule and collects that run's garbage, all outside the
// timing, and returns the resumed run's report.
func (r *runner) runChunks(m *spinngo.Machine, chunks []int, midAt int) (rep, resumed *spinngo.RunReport, err error) {
	runtime.GC()
	s := r.tr.begin("run")
	defer r.tr.end(s)
	before := m.SimStats()
	mallocs0 := mallocs()
	var cpu, wall float64
	for i, n := range chunks {
		if i == midAt && midAt > 0 {
			// The resume's allocations are not the run's.
			mallocs0 -= mallocs()
			resumed, err = r.resumeElsewhere(m, chunks[midAt:])
			if err != nil {
				return nil, nil, err
			}
			runtime.GC()
			mallocs0 += mallocs()
		}
		c := r.tr.begin("run.chunk")
		mt := startMeter()
		rep, err = m.Run(n)
		dc, dw := mt.stop()
		r.tr.end(c)
		if !r.op("chunk", err) {
			return nil, nil, err
		}
		cpu += dc
		wall += dw
	}
	after := m.SimStats()
	r.runMallocs = mallocs() - mallocs0
	r.runEvents = after.Events - before.Events
	r.runHandoffs = after.Handoffs - before.Handoffs
	r.runWindows = after.Windows - before.Windows
	r.runCPU = append(r.runCPU, cpu/r.bioSeconds())
	r.runWall = append(r.runWall, wall/r.bioSeconds())
	return rep, resumed, nil
}

// resumeElsewhere snapshots m mid-run, restores the image onto a
// different worker count and partition and runs the rest of the
// schedule there, returning the final report.
func (r *runner) resumeElsewhere(m *spinngo.Machine, rest []int) (*spinngo.RunReport, error) {
	s := r.tr.begin("check.midrun")
	defer r.tr.end(s)
	img, err := m.Snapshot()
	if !r.op("snapshot", err) {
		return nil, err
	}
	alt, err := spinngo.RestoreOn(img, r.sp.altWorkers, r.sp.altPartition)
	if !r.op("restore", err) {
		return nil, err
	}
	defer alt.Close()
	var rep *spinngo.RunReport
	for _, n := range rest {
		rep, err = alt.Run(n)
		if !r.op("chunk", err) {
			return nil, err
		}
	}
	return rep, nil
}

// checkRound checks one finished round's outputs against properties
// computed from the document.
func (r *runner) checkRound(m *spinngo.Machine, rep *spinngo.RunReport) {
	wl := r.wl
	r.check("run.bio_time", rep.BioTimeMS == uint64(wl.Run.BioMS),
		"BioTimeMS %d, want %d", rep.BioTimeMS, wl.Run.BioMS)
	r.check("run.spikes", rep.TotalSpikes > 0, "no spikes recorded")
	want := wl.Machine.Width*wl.Machine.Height - killedChips(wl)
	r.check("machine.alive_chips", m.AliveChips() == want, "AliveChips %d, want %d", m.AliveChips(), want)
	counts, err := poissonCounts(m, wl)
	if err != nil {
		r.check("poisson.rate", false, "%v", err)
		return
	}
	for _, pc := range counts {
		r.check("poisson.rate", math.Abs(pc.z) <= poissonZLimit,
			"population %s fired %d spikes in %d ms, expected %.1f ± %.1f (z=%.2f)",
			pc.pop, pc.count, pc.windowMS, pc.mean, pc.sd, pc.z)
	}
}

// run measures the workload in rounds, at least minRounds and then as
// many more whole rounds as fit in r.seconds, and ends with the host
// fill check. A round sets the machine up, runs the whole chunk schedule
// and checks its outputs, then times a snapshot sample and a restore of
// that machine. Sampling every figure once a round spreads its samples
// over the whole run, so a slow spell of the host moves one sample of
// each rather than all samples of one.
func (r *runner) run() {
	heap0 := liveHeapBytes()
	chunks := spinngo.WorkloadChunks(r.wl)
	var first *spinngo.RunReport
	var last *spinngo.Machine
	defer func() {
		if last != nil {
			last.Close()
		}
	}()
	var spent, wall float64
	for round := 0; round < minRounds || spent+wall <= r.seconds; round++ {
		// Only the latest round's machine stays alive: live_heap_mb
		// describes one machine.
		if last != nil {
			last.Close()
			last = nil
		}
		mt := startMeter()
		m, err := r.setup(r.tr != nil && round == 0)
		if err != nil {
			return
		}
		last = m
		midAt := 0
		if round == 0 {
			// The first round also checks the repartitioned resume.
			midAt = len(chunks) / 2
		}
		rep, resumed, err := r.runChunks(m, chunks, midAt)
		if err != nil {
			return
		}
		r.checkRound(m, rep)
		if round == 0 {
			first = rep
			d := reportDiff(resumed, rep)
			r.check("snapshot.midrun_repartitioned", d == "",
				"restored onto %d workers/%q differs: %s", r.sp.altWorkers, r.sp.altPartition, d)
		} else {
			name := "run.repeatable"
			if r.tr != nil && round == 1 {
				// Round 0 of a traced run was built step by step.
				name = "trace.report_equal"
			}
			d := reportDiff(rep, first)
			r.check(name, d == "", "round %d differs from round 0: %s", round, d)
		}
		img := r.snapshotSample(m, round)
		if img == nil {
			return
		}
		if !r.restoreSample(img) {
			return
		}
		_, wall = mt.stop()
		spent += wall
	}
	r.liveHeap = liveHeapBytes() - heap0
	r.hostFill(last)
}

// snapshotSample times m's Snapshot over enough calls to use
// shortSampleCPU, so no sample is one call of a few milliseconds. Every
// call must return the same bytes, and every round the same image as
// round 0.
//
// Collections are left out of the timing. A Snapshot allocates several
// times its image size, so whether a collection lands in a sample, and
// how much of the machine's live heap it marks, dominated the figure:
// on fabric-storm, samples moved by ±19% with the pacer choosing when to
// collect, and collecting at a fixed share of the live heap made the
// figure jump between seeds as that share crossed whole calls. With the
// collector off during the calls and run between them whenever the
// garbage reaches the live heap, a sample is the calls' own work,
// allocation included.
func (r *runner) snapshotSample(m *spinngo.Machine, round int) []byte {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	live, since := heapBytes()
	s := r.tr.begin("snapshot")
	var img []byte
	calls, stable := 0, true
	var cpu float64
	var err error
	for cpu < shortSampleCPU && err == nil {
		if _, total := heapBytes(); total-since >= live {
			runtime.GC()
			_, since = heapBytes()
		}
		mt := startMeter()
		var b []byte
		b, err = m.Snapshot()
		c, _ := mt.stop()
		cpu += c
		calls++
		if img == nil {
			img = b
		}
		stable = stable && bytes.Equal(b, img)
	}
	r.tr.end(s)
	if !r.op("snapshot", err) {
		return nil
	}
	r.snapCPU = append(r.snapCPU, cpu/float64(calls))
	sum := sha256.Sum256(img)
	if round == 0 {
		r.imageSum, r.imageBytes = sum, len(img)
	}
	r.check("snapshot.stable", stable && sum == r.imageSum,
		"round %d: repeated snapshots differ, or differ from round 0's", round)
	return img
}

// restoreSample times one RestoreOn of img with the same workers and
// partition; the restored machine must re-snapshot to the same bytes.
func (r *runner) restoreSample(img []byte) bool {
	runtime.GC()
	s := r.tr.begin("restore")
	mt := startMeter()
	m, err := spinngo.RestoreOn(img, r.wl.Machine.Workers, r.wl.Machine.Partition)
	cpu, _ := mt.stop()
	r.tr.end(s)
	if !r.op("restore", err) {
		return false
	}
	defer m.Close()
	r.restoreCPU = append(r.restoreCPU, cpu)
	again, err := m.Snapshot()
	if !r.op("snapshot", err) {
		return false
	}
	r.check("snapshot.restore_roundtrip", bytes.Equal(again, img),
		"re-snapshot of the restored machine differs (%d vs %d bytes)", len(again), len(img))
	return true
}

// hostFill flood-fills a payload through the host link, timing it, and
// checks that it reached every chip the host can reach. It runs last:
// host commands advance the machine's clock. Reading the payload back is
// left out until HostLink.ReadMem answers reliably on these machines
// (see CHANGES.md).
func (r *runner) hostFill(m *spinngo.Machine) {
	s := r.tr.begin("host.fill")
	mt := startMeter()
	chips, err := fill(m, r.seed)
	r.fillCPU, _ = mt.stop()
	r.tr.end(s)
	if !r.op("check", err) {
		return
	}
	w := r.wl.Machine.Width * r.wl.Machine.Height
	want := w - killedChips(r.wl) - severedChips(r.wl)
	r.check("host.fill_chips", chips == want, "FillMem reached %d chips, want %d", chips, want)
}
