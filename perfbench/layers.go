package main

import (
	"runtime"
	"sort"

	"spinngo/internal/chip"
	"spinngo/internal/kernel"
	"spinngo/internal/mapping"
	"spinngo/internal/neural"
	"spinngo/internal/packet"
	"spinngo/internal/router"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
	"spinngo/internal/workload"
)

// Per-layer harnesses: each calls one layer's exported functions on
// inputs sized from the workload — the workload's own compiled synaptic
// rows and routing tables where the layer consumes them — and reports a
// CPU cost per unit of work. Every harness repeats its work until it
// has consumed at least harnessCPU seconds, so no figure rests on one
// short call.

const harnessCPU = 0.15

// repeatFor calls work until it has used at least cpu seconds of CPU
// and returns the seconds used and the units of work done.
func repeatFor(cpu float64, work func() int) (used float64, units int) {
	mt := startMeter()
	for used < cpu || units == 0 {
		units += work()
		used, _ = mt.stop()
	}
	return used, units
}

// nsPer is CPU nanoseconds per unit.
func nsPer(used float64, units int) float64 { return used * 1e9 / float64(units) }

// compiled is the workload's network as the mapping layer compiles it.
type compiled struct {
	cpu   float64
	rplan *mapping.RoutingPlan
	dplan *mapping.DataPlan
	// busiest is the core image with the most synaptic rows; plastic is
	// the busiest core image carrying STDP rows (nil when none does).
	busiest, plastic *mapping.CoreData
}

// compileNetwork runs the mapping layer's whole pipeline — partition,
// place, route, build data — on the workload's network.
func compileNetwork(wl *workload.Workload) (*compiled, error) {
	net := mappingNetwork(wl)
	spec := mapping.DefaultMachineSpec(wl.Machine.Width, wl.Machine.Height)
	if c := wl.Machine.MaxAppCoresPerChip; c > 0 && c < spec.AppCoresPerChip {
		spec.AppCoresPerChip = c
	}
	if n := wl.Machine.MaxNeuronsPerCore; n > 0 {
		spec.MaxNeuronsPerCore = n
	}
	c := &compiled{}
	var err error
	mt := startMeter()
	c.rplan, c.dplan, err = mapping.Compile(net, spec, mapping.PlaceSerpentine,
		mapping.RouteOptions{ElideDefault: true, Minimise: true}, wl.Machine.Seed)
	c.cpu, _ = mt.stop()
	if err != nil {
		return nil, err
	}
	// Visit core images in a fixed order so ties resolve the same way
	// on every run.
	var all []*mapping.CoreData
	for _, cores := range c.dplan.Cores {
		for _, cd := range cores {
			all = append(all, cd)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Frag.Index < all[j].Frag.Index })
	for _, cd := range all {
		if c.busiest == nil || cd.Matrix.NumRows() > c.busiest.Matrix.NumRows() {
			c.busiest = cd
		}
		if cd.STDP != nil && (c.plastic == nil || cd.Matrix.NumRows() > c.plastic.Matrix.NumRows()) {
			c.plastic = cd
		}
	}
	return c, nil
}

// rows returns a core image's rows in key order.
func rows(cd *mapping.CoreData) ([]uint32, []neural.Row) {
	keys := cd.Matrix.Keys()
	out := make([]neural.Row, len(keys))
	for i, k := range keys {
		out[i], _ = cd.Matrix.Row(k)
	}
	return keys, out
}

func synapses(rs []neural.Row) (n int) {
	for _, r := range rs {
		n += len(r)
	}
	return n
}

// nopEv is an event that does nothing.
type nopEv struct{}

func (nopEv) Run()                 {}
func (nopEv) EventDesc() *sim.Desc { return nil }

// queueBurstNS: depth events at one timestamp pushed and popped — the
// same-instant bursts of boot and flood fill.
func queueBurstNS(depth int) float64 {
	eng := sim.New(1)
	dom := eng.Domain(0)
	evs := make([]nopEv, depth)
	used, units := repeatFor(harnessCPU, func() int {
		t := eng.Now() + sim.Microsecond
		for i := range evs {
			dom.AtP(t, &evs[i])
		}
		eng.Run()
		return depth
	})
	return nsPer(used, units)
}

// holdEv re-arms itself a pseudo-random delay ahead until the budget is
// spent: the classic hold model of a queue at steady depth.
type holdEv struct {
	dom    *sim.Domain
	rng    *sim.RNG
	spread int
	left   *int
}

func (h *holdEv) Run() {
	if *h.left <= 0 {
		return
	}
	*h.left--
	h.dom.AfterP(sim.Time(1+h.rng.Intn(h.spread)), h)
}

func (h *holdEv) EventDesc() *sim.Desc { return nil }

// queueSpreadNS: a queue held at depth events spread over one timer
// period, the shape of a running network's timers and deliveries.
func queueSpreadNS(depth int) float64 {
	eng := sim.New(1)
	dom := eng.Domain(0)
	rng := sim.NewRNG(7)
	const perRound = 200_000
	used, units := repeatFor(harnessCPU, func() int {
		left := perRound
		for i := 0; i < depth; i++ {
			h := &holdEv{dom: dom, rng: rng, spread: int(sim.Millisecond), left: &left}
			dom.AfterP(sim.Time(1+rng.Intn(int(sim.Millisecond))), h)
		}
		eng.Run()
		return perRound + depth
	})
	return nsPer(used, units)
}

// tickEv re-arms itself every period on its shard until the deadline.
type tickEv struct {
	eng      *sim.Engine
	period   sim.Time
	deadline sim.Time
}

func (t *tickEv) Run() {
	if t.eng.Now()+t.period <= t.deadline {
		t.eng.AfterP(t.period, t)
	}
}

func (t *tickEv) EventDesc() *sim.Desc { return nil }

// handoffNS: CPU per window hand-off and barrier of a 2-shard, 2-worker
// parallel engine whose shards both have work in every window.
func handoffNS() float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(2, runtime.NumCPU())))
	const la = sim.Microsecond
	pe := sim.NewParallel(1, 2, 2)
	defer pe.Close()
	pe.SetLookahead(la)
	var handoffs uint64
	used, _ := repeatFor(harnessCPU, func() int {
		deadline := pe.Now() + 2000*la
		for i := 0; i < pe.Shards(); i++ {
			eng := pe.Shard(i)
			eng.AfterP(la/2, &tickEv{eng: eng, period: la / 2, deadline: deadline})
		}
		h0 := pe.Handoffs()
		pe.RunUntil(deadline)
		handoffs += pe.Handoffs() - h0
		return 1
	})
	return nsPer(used, int(handoffs))
}

// routerHopNS: CPU per hop of multicast packets crossing hops chips
// eastward on an otherwise idle fabric.
func routerHopNS(width, height, hops int) (float64, error) {
	eng := sim.New(1)
	fab, err := router.NewFabric(eng, router.DefaultParams(width, height))
	if err != nil {
		return 0, err
	}
	km := packet.KeyMask{Key: 1, Mask: 0xffffffff}
	src := topo.Coord{}
	fab.Node(src).Table.Add(router.Entry{Match: km, Route: router.LinkRoute(topo.East)})
	fab.Node(topo.Coord{X: hops % width}).Table.Add(router.Entry{Match: km, Route: router.CoreRoute(0)})
	used, units := repeatFor(harnessCPU, func() int {
		for i := 0; i < 64; i++ {
			fab.InjectMC(src, packet.NewMC(1))
		}
		eng.Run()
		return 64 * hops
	})
	return nsPer(used, units), nil
}

// routerLookupNS: CPU per hit in a table holding the workload's largest
// per-chip routing table.
func routerLookupNS(c *compiled) float64 {
	var entries []router.Entry
	for _, es := range c.rplan.Tables {
		if len(es) > len(entries) {
			entries = es
		}
	}
	t := router.NewTable(0)
	if len(entries) == 0 {
		entries = []router.Entry{{Match: packet.KeyMask{Key: 1, Mask: 0xffffffff}, Route: router.CoreRoute(0)}}
	}
	for _, e := range entries {
		if err := t.Add(e); err != nil {
			panic(err) // an unlimited table accepts every entry
		}
	}
	used, units := repeatFor(harnessCPU, func() int {
		for _, e := range entries {
			t.Lookup(e.Match.Key)
		}
		return len(entries)
	})
	return nsPer(used, units)
}

// routerRetryAllocs: heap allocations per blocked-link retry. Packets
// aim at a failed link with emergency routing off, so each waits out
// the whole retry window and is dropped.
func routerRetryAllocs() (float64, error) {
	eng := sim.New(1)
	p := router.DefaultParams(4, 4)
	p.EmergencyEnabled = false
	fab, err := router.NewFabric(eng, p)
	if err != nil {
		return 0, err
	}
	km := packet.KeyMask{Key: 1, Mask: 0xffffffff}
	fab.Node(topo.Coord{}).Table.Add(router.Entry{Match: km, Route: router.LinkRoute(topo.East)})
	fab.FailLink(topo.Coord{}, topo.East)
	const packets = 256
	m0, e0 := mallocs(), eng.Processed()
	for i := 0; i < packets; i++ {
		fab.InjectMC(topo.Coord{}, packet.NewMC(1))
		eng.Run()
	}
	// One routing event per packet; every other event is a retry.
	retries := eng.Processed() - e0 - packets
	return float64(mallocs()-m0) / float64(retries), nil
}

// rowLookupNS: CPU per synaptic-row lookup over every key of the
// workload's busiest core image.
func rowLookupNS(c *compiled) float64 {
	keys, _ := rows(c.busiest)
	m := c.busiest.Matrix
	used, units := repeatFor(harnessCPU, func() int {
		for _, k := range keys {
			m.Row(k)
		}
		return len(keys)
	})
	return nsPer(used, units)
}

// processRowNS: CPU per synapse depositing the busiest core's rows into
// its population's input ring.
func processRowNS(c *compiled) float64 {
	_, rs := rows(c.busiest)
	pop := neural.NewLIFPopulation(c.busiest.Frag.Size(), neural.MaxSynDelay, neural.DefaultLIF())
	used, units := repeatFor(harnessCPU, func() int {
		for _, r := range rs {
			pop.ProcessRow(r)
		}
		pop.StepTick()
		return synapses(rs)
	})
	return nsPer(used, units)
}

// largestFragment is the size of the workload's largest fragment of a
// model kind, or the per-core neuron bound when it has none.
func largestFragment(c *compiled, kind mapping.ModelKind) int {
	n := 0
	for _, f := range c.rplan.Frags {
		if f.Pop.Kind == kind && f.Size() > n {
			n = f.Size()
		}
	}
	if n == 0 {
		n = c.rplan.Spec.MaxNeuronsPerCore
	}
	return n
}

// stepNS: CPU per neuron-step of a population driven by a bias current
// strong enough that its neurons fire, the way a core's timer task steps
// its fragment.
func stepNS(pop *neural.Population, drive neural.Fix) float64 {
	pop.Bias = drive
	n := pop.Size()
	used, units := repeatFor(harnessCPU, func() int {
		for t := 0; t < 100; t++ {
			pop.StepTick()
		}
		return 100 * n
	})
	return nsPer(used, units)
}

// stdpRowNS: CPU per synapse of deferred STDP on the workload's busiest
// plastic core image (or its busiest image when nothing is plastic),
// with every post-synaptic neuron firing every few ticks.
func stdpRowNS(c *compiled) float64 {
	cd := c.plastic
	if cd == nil {
		cd = c.busiest
	}
	keys, rs := rows(cd)
	n := cd.Frag.Size()
	st := neural.NewSTDPState(n, neural.DefaultSTDP())
	// Work on copies: ProcessRow rewrites weights in place.
	work := make([]neural.Row, len(rs))
	for i, r := range rs {
		work[i] = append(neural.Row(nil), r...)
	}
	var now uint64
	used, units := repeatFor(harnessCPU, func() int {
		now += 5
		for j := 0; j < n; j += 3 {
			st.RecordPost(j, now-uint64(j%5))
		}
		for i, r := range work {
			st.ProcessRow(keys[i], r, now)
		}
		return synapses(work)
	})
	return nsPer(used, units)
}

// kernelDispatchNS: CPU per event dispatched by one core's event loop,
// from a backlog of queued packet events.
func kernelDispatchNS() float64 {
	eng := sim.New(1)
	core := kernel.NewCore(eng, kernel.DefaultConfig())
	core.On(kernel.EvPacket, func(kernel.Event) uint64 { return 10 })
	const backlog = 64
	used, units := repeatFor(harnessCPU, func() int {
		for i := 0; i < backlog; i++ {
			core.PostPacket(packet.NewMC(uint32(i)))
		}
		eng.Run()
		return backlog
	})
	return nsPer(used, units)
}

// dmaNS: CPU per DMA transfer of the busiest core's mean row size.
func dmaNS(c *compiled) float64 {
	_, rs := rows(c.busiest)
	size := 4 * synapses(rs) / len(rs)
	eng := sim.New(1)
	dma := chip.NewDMAController(eng, chip.NewSDRAM(eng))
	dma.OnDone = func(uint32) {}
	const burst = 64
	used, units := repeatFor(harnessCPU, func() int {
		for i := 0; i < burst; i++ {
			dma.Enqueue(chip.DMARequest{Size: size, Tag: uint32(i)})
		}
		eng.Run()
		return burst
	})
	return nsPer(used, units)
}

// parseMS: CPU milliseconds per strict parse of the workload document.
func parseMS(doc []byte) (float64, error) {
	var perr error
	used, units := repeatFor(harnessCPU, func() int {
		if _, err := workload.Parse(doc); err != nil {
			perr = err
		}
		return 1
	})
	return used * 1e3 / float64(units), perr
}
