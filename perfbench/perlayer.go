package main

import (
	"spinngo/internal/mapping"
	"spinngo/internal/neural"
)

// layerMetric is one per-layer figure of a traced run.
type layerMetric struct {
	name  string
	value float64
	unit  string
}

// harnessFigures holds the per-layer harness results of a traced run.
type harnessFigures struct {
	queueBurst, queueSpread, handoff        float64
	hop, lookup, retryAllocs                float64
	rowLookup, processRow, lifStep, izhStep float64
	stdpRow, dispatch, dma, parse           float64
}

// layers runs the per-layer harnesses, each inside its own span.
func (r *runner) layers() error {
	h := &r.harness
	timed := func(name string, f func() error) error {
		s := r.tr.begin("harness." + name)
		defer r.tr.end(s)
		return f()
	}
	w, ht := r.wl.Machine.Width, r.wl.Machine.Height
	if err := timed("mapping.compile", func() (err error) {
		r.compiled, err = compileNetwork(r.wl)
		return err
	}); err != nil {
		return err
	}
	c := r.compiled
	hops := w / 2
	if hops < 1 {
		hops = 1
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"sim.queue_burst", func() error { h.queueBurst = queueBurstNS(w * ht); return nil }},
		{"sim.queue_spread", func() error { h.queueSpread = queueSpreadNS(3 * len(c.rplan.Frags)); return nil }},
		{"sim.handoff", func() error { h.handoff = handoffNS(); return nil }},
		{"router.hop", func() (err error) { h.hop, err = routerHopNS(w, ht, hops); return err }},
		{"router.lookup", func() error { h.lookup = routerLookupNS(c); return nil }},
		{"router.retry", func() (err error) { h.retryAllocs, err = routerRetryAllocs(); return err }},
		{"neural.row_lookup", func() error { h.rowLookup = rowLookupNS(c); return nil }},
		{"neural.process_row", func() error { h.processRow = processRowNS(c); return nil }},
		{"neural.lif_step", func() error {
			n := largestFragment(c, mapping.ModelLIF)
			h.lifStep = stepNS(neural.NewLIFPopulation(n, neural.MaxSynDelay, neural.DefaultLIF()), neural.F(0.5))
			return nil
		}},
		{"neural.izh_step", func() error {
			n := largestFragment(c, mapping.ModelIzhikevich)
			h.izhStep = stepNS(neural.NewIzhikevichPopulation(n, neural.MaxSynDelay, neural.FastSpiking()), neural.F(5))
			return nil
		}},
		{"neural.stdp_row", func() error { h.stdpRow = stdpRowNS(c); return nil }},
		{"kernel.dispatch", func() error { h.dispatch = kernelDispatchNS(); return nil }},
		{"chip.dma", func() error { h.dma = dmaNS(c); return nil }},
		{"workload.parse", func() (err error) { h.parse, err = parseMS(r.doc); return err }},
	}
	for _, st := range steps {
		if err := timed(st.name, st.f); err != nil {
			return err
		}
	}
	return nil
}

// perLayer assembles the traced run's per-layer metrics; e2e are the
// traced run's own end-to-end figures, whose difference from an
// untraced run is the tracing overhead.
func (r *runner) perLayer(e2e map[string]float64) []layerMetric {
	h := &r.harness
	bio := r.bioSeconds()
	perEvent := 0.0
	if r.runEvents > 0 {
		perEvent = float64(r.runMallocs) / float64(r.runEvents)
	}
	encode := 0.0
	if s := median(r.snapCPU); s > 0 {
		encode = float64(r.imageBytes) / 1e6 / s
	}
	return []layerMetric{
		{"sim.events_per_bio_s", float64(r.runEvents) / bio, "1/s"},
		{"sim.allocs_per_event", perEvent, "count"},
		{"sim.handoffs_per_bio_s", float64(r.runHandoffs) / bio, "1/s"},
		{"sim.windows_per_bio_s", float64(r.runWindows) / bio, "1/s"},
		{"sim.run_wall_per_cpu", median(r.runWall) / median(r.runCPU), "s/s"},
		{"sim.setup_events", float64(r.setupEvents), "count"},
		{"sim.queue_burst_ns_per_event", h.queueBurst, "ns"},
		{"sim.queue_spread_ns_per_event", h.queueSpread, "ns"},
		{"sim.handoff_ns", h.handoff, "ns"},
		{"router.hop_ns", h.hop, "ns"},
		{"router.lookup_ns", h.lookup, "ns"},
		{"router.retry_allocs", h.retryAllocs, "count"},
		{"neural.row_lookup_ns", h.rowLookup, "ns"},
		{"neural.process_row_ns_per_synapse", h.processRow, "ns"},
		{"neural.lif_step_ns_per_neuron", h.lifStep, "ns"},
		{"neural.izh_step_ns_per_neuron", h.izhStep, "ns"},
		{"neural.stdp_row_ns_per_synapse", h.stdpRow, "ns"},
		{"kernel.dispatch_ns", h.dispatch, "ns"},
		{"chip.dma_ns_per_transfer", h.dma, "ns"},
		{"machine.boot_s", r.bootCPU, "s"},
		{"host.fill_s", r.fillCPU, "s"},
		{"machine.load_s", r.loadCPU, "s"},
		{"mapping.compile_s", r.compiled.cpu, "s"},
		{"mapping.table_entries", float64(r.tableEntries), "count"},
		{"snap.encode_mb_per_s", encode, "MB/s"},
		{"snap.restore_overhead_s", median(r.restoreCPU) - r.bootCPU - r.loadCPU, "s"},
		{"workload.parse_ms", h.parse, "ms"},
		{"trace.setup_s", e2e["setup_s"], "s"},
		{"trace.run_cpu_s_per_bio_s", e2e["run_cpu_s_per_bio_s"], "s/s"},
	}
}
