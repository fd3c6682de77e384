package main

import (
	"fmt"
	"math"
	"reflect"
	"strings"

	"spinngo"
	"spinngo/internal/workload"
)

// The checks below test properties the simulation must have, computed
// from the workload document alone. None compares against a stored copy
// of an earlier run's output.

// poissonZLimit is how many standard deviations a Poisson population's
// spike count may sit from its binomial expectation.
const poissonZLimit = 5

// firstKillMS is the time of the campaign's first chip death, or the run
// length when nothing dies: before it every chip is alive.
func firstKillMS(wl *workload.Workload) int {
	first := wl.Run.BioMS
	if wl.Campaign != nil {
		for _, e := range wl.Campaign.Events {
			if (e.Kind == workload.EvFailChip || e.Kind == workload.EvChipStorm) && e.AtMS < first {
				first = e.AtMS
			}
		}
	}
	return first
}

// poissonCount is one Poisson population's spike count in the checked
// window against its binomial expectation: each of N sources fires with
// probability rate/1000 on each 1 ms tick.
type poissonCount struct {
	pop         string
	count       int
	mean, sd, z float64
	windowMS    int
}

// poissonCounts counts, for every Poisson population, the spikes
// recorded at ticks 1..W, where W ends before the first chip death (a
// dead chip's sources fall silent, so only the window where every chip
// is alive has a known expectation).
func poissonCounts(m *spinngo.Machine, wl *workload.Workload) ([]poissonCount, error) {
	window := firstKillMS(wl) - 1
	var out []poissonCount
	for _, p := range wl.Populations {
		if p.Kind != workload.PopPoisson {
			continue
		}
		pop, ok := m.Pop(p.Name)
		if !ok {
			return nil, fmt.Errorf("poisson population %q not loaded", p.Name)
		}
		count := 0
		for _, s := range m.Spikes(pop) {
			if s.TimeMS >= 1 && s.TimeMS <= uint64(window) {
				count++
			}
		}
		trials := float64(p.Size * window)
		prob := p.RateHz / 1000
		pc := poissonCount{pop: p.Name, count: count, windowMS: window,
			mean: trials * prob, sd: math.Sqrt(trials * prob * (1 - prob))}
		if pc.sd > 0 {
			pc.z = (float64(count) - pc.mean) / pc.sd
		}
		out = append(out, pc)
	}
	return out, nil
}

// killedChips counts the chips the document's campaign kills: each
// fail_chip target once, plus each storm's count (a storm's draws are
// distinct by construction).
func killedChips(wl *workload.Workload) int {
	if wl.Campaign == nil {
		return 0
	}
	explicit := map[[2]int]bool{}
	storms := 0
	for _, e := range wl.Campaign.Events {
		switch e.Kind {
		case workload.EvFailChip:
			explicit[[2]int{e.X, e.Y}] = true
		case workload.EvChipStorm:
			storms += e.Count
		}
	}
	return len(explicit) + storms
}

// reportDiff lists the RunReport fields on which a and b differ; empty
// when they are equal field for field.
func reportDiff(a, b *spinngo.RunReport) string {
	if a == nil || b == nil {
		return "missing report"
	}
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	var diffs []string
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i).Interface(), vb.Field(i).Interface()
		if !reflect.DeepEqual(fa, fb) {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", va.Type().Field(i).Name, fa, fb))
		}
	}
	return strings.Join(diffs, "; ")
}

// severedChips counts the chips inside the campaign's sever regions:
// every link across a region's boundary is cut, so with the host chip
// (0,0) outside and no repair reconnecting them, the host cannot reach
// them. The benchmark's documents keep sever regions clear of storms.
func severedChips(wl *workload.Workload) int {
	if wl.Campaign == nil {
		return 0
	}
	n := 0
	for _, e := range wl.Campaign.Events {
		if e.Kind == workload.EvSever {
			n += e.Region.W * e.Region.H
		}
	}
	return n
}

// fillPayload is the FillMem test pattern, drawn from the seed.
func fillPayload(seed uint64, n int) []byte {
	s := seedStream(seed ^ 0xf111)
	out := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := s.next()
		for k := 0; k < 8 && i+k < n; k++ {
			out[i+k] = byte(v >> (8 * k))
		}
	}
	return out
}

// fillAddr is an SDRAM address clear of the boot image and of the
// application cores' synaptic images.
const fillAddr = 0x7000_0000

// fillBytes is the FillMem payload size.
const fillBytes = 256

// fill flood-fills a seeded payload into every chip the host reaches and
// returns how many acknowledged.
func fill(m *spinngo.Machine, seed uint64) (int, error) {
	hl, err := m.AttachHost()
	if err != nil {
		return 0, err
	}
	chips, err := hl.FillMem(fillAddr, fillPayload(seed, fillBytes))
	if err != nil {
		return 0, fmt.Errorf("FillMem: %w", err)
	}
	return chips, nil
}
