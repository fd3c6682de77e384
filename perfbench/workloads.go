package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"spinngo/internal/workload"
)

// spec is one benchmark workload: a document generated from the seed
// (which also names the workers and partition it runs on) and the
// different strategy its mid-run snapshot is restored onto for the
// repartition check.
type spec struct {
	name string
	why  string
	gen  func(seed uint64) *workload.Workload

	// altWorkers and altPartition are where the mid-run snapshot is
	// resumed: a different worker count and geometry, so the check
	// covers the codec and the repartitioned restore at once.
	altWorkers   int
	altPartition string
}

var specs = map[string]*spec{
	"cortex-plastic": {
		name:         "cortex-plastic",
		why:          "neural, kernel and chip DMA layers do the work; router hops are short and rare",
		gen:          genCortexPlastic,
		altWorkers:   2,
		altPartition: "blocks",
	},
	"fabric-storm": {
		name:         "fabric-storm",
		why:          "router and the 2-worker parallel engine dominate; congestion drives retries, detours and drops",
		gen:          genFabricStorm,
		altWorkers:   1,
		altPartition: "bands",
	},
}

// workloadNames lists the workloads in the order the all-workloads mode
// runs them.
func workloadNames() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// seedStream derives the document's independent seeds (machine,
// projections, campaign) from the benchmark's one seed argument by
// splitmix64, so neighbouring seeds give unrelated networks.
type seedStream uint64

func (s *seedStream) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // 0 means "derive from the order" in the schema
	}
	return z
}

// document renders the workload as JSON and passes it through the
// strict parser, so the program only ever sees a validated document.
func document(sp *spec, seed uint64) ([]byte, *workload.Workload, error) {
	data, err := json.MarshalIndent(sp.gen(seed), "", "  ")
	if err != nil {
		return nil, nil, fmt.Errorf("%s: encode document: %w", sp.name, err)
	}
	wl, err := workload.Parse(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: generated document rejected: %w", sp.name, err)
	}
	return data, wl, nil
}

// genCortexPlastic: a 6x6 machine on one worker. 300 thalamic Poisson
// sources drive 4000 LIF cells with plastic (STDP) recurrence, balanced
// by 1000 fast-spiking and 300 chattering Izhikevich cells.
func genCortexPlastic(seed uint64) *workload.Workload {
	s := seedStream(seed)
	return &workload.Workload{
		SchemaV:     workload.Schema,
		Name:        "cortex-plastic",
		Description: "thalamic Poisson drive into a plastic LIF cortex with Izhikevich interneurons",
		Machine: workload.Machine{
			Width: 6, Height: 6, Seed: s.next(),
			Workers: 1, MaxNeuronsPerCore: 64,
		},
		Populations: []workload.Population{
			{Name: "thalamus", Kind: workload.PopPoisson, Size: 300, RateHz: 20},
			{Name: "exc", Kind: workload.PopLIF, Size: 4000},
			{Name: "fs", Kind: workload.PopIzhikevich, Preset: workload.IzhFast, Size: 1000},
			{Name: "chat", Kind: workload.PopIzhikevich, Preset: workload.IzhChattering, Size: 300, BiasNA: 3},
		},
		Projections: []workload.Projection{
			{From: "thalamus", To: "exc", Rule: workload.RuleProb, P: 0.05, WeightNA: 1.0, DelayMS: 1, Seed: s.next()},
			{From: "exc", To: "exc", Rule: workload.RuleProb, P: 0.005, WeightNA: 0.4, DelayMS: 2, STDP: true, Seed: s.next()},
			{From: "exc", To: "fs", Rule: workload.RuleProb, P: 0.01, WeightNA: 3.0, DelayMS: 1, Seed: s.next()},
			{From: "fs", To: "exc", Rule: workload.RuleProb, P: 0.03, WeightNA: 0.8, DelayMS: 1, Inhibitory: true, Seed: s.next()},
			{From: "chat", To: "exc", Rule: workload.RuleFanout, Fanout: 20, WeightNA: 0.3, DelayMS: 4, Seed: s.next()},
		},
		Run: workload.Run{BioMS: 300, ChunkMS: 100},
	}
}

// genFabricStorm: a 16x16 machine of 8x8 boards on slow links in two
// cabinets, one core per chip with 16 neurons, fan-out-24 recurrence
// under Poisson drive, scanning storms every 3 ms and a fault campaign
// of link failures, a chip-death storm, a severed region and a repair.
func genFabricStorm(seed uint64) *workload.Workload {
	s := seedStream(seed)
	return &workload.Workload{
		SchemaV:     workload.Schema,
		Name:        "fabric-storm",
		Description: "multi-hop recurrent traffic with scanning storms over a faulting three-level fabric",
		Machine: workload.Machine{
			Width: 16, Height: 16, Seed: s.next(), Workers: 2,
			Boards: "8x8", BoardLink: "slow", Cabinets: "2x1", CabinetLink: "slow",
			MaxAppCoresPerChip: 1, MaxNeuronsPerCore: 16, FillRedundancy: 2,
		},
		Populations: []workload.Population{
			{Name: "stim", Kind: workload.PopPoisson, Size: 256, RateHz: 50},
			{Name: "net", Kind: workload.PopLIF, Size: 3840},
		},
		Projections: []workload.Projection{
			{From: "stim", To: "net", Rule: workload.RuleProb, P: 0.05, WeightNA: 1.0, DelayMS: 1, Seed: s.next()},
			{From: "net", To: "net", Rule: workload.RuleFanout, Fanout: 24, WeightNA: 0.3, DelayMS: 2, Seed: s.next()},
		},
		Stimuli: []workload.Stimulus{
			{Kind: workload.StimScan, Pop: "net", StartMS: 3, EndMS: 57, EveryMS: 3, Count: 48, Stride: 79},
		},
		Campaign: &workload.Campaign{
			Seed: s.next(),
			Events: []workload.Event{
				{AtMS: 12, Kind: workload.EvFailLink, X: 7, Y: 4, Dir: "E"},
				{AtMS: 15, Kind: workload.EvFailLink, X: 3, Y: 8, Dir: "N"},
				{AtMS: 25, Kind: workload.EvChipStorm, Count: 3, Region: &workload.Region{X: 9, Y: 9, W: 5, H: 5}},
				{AtMS: 32, Kind: workload.EvSever, Region: &workload.Region{X: 2, Y: 12, W: 2, H: 2}},
				{AtMS: 40, Kind: workload.EvRepairLink, X: 7, Y: 4, Dir: "E"},
			},
		},
		Run: workload.Run{BioMS: 60, ChunkMS: 10},
	}
}
