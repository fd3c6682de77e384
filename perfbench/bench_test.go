package main

import (
	"bytes"
	"io"
	"math"
	"testing"

	"spinngo"
	"spinngo/internal/workload"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{7}, 7, 7},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10.2, 9.8, 10.0, 10.4, 9.9}, 9.85, 10.3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

// TestDocumentsParseStrictly: every workload's generated document passes
// the strict parser on many seeds, the same seed gives the same bytes,
// and different seeds give different documents.
func TestDocumentsParseStrictly(t *testing.T) {
	for _, name := range workloadNames() {
		sp := specs[name]
		seen := map[string]uint64{}
		for seed := uint64(0); seed < 20; seed++ {
			doc, wl, err := document(sp, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if wl.Name != name {
				t.Errorf("%s seed %d: document names %q", name, seed, wl.Name)
			}
			again, _, err := document(sp, seed)
			if err != nil || !bytes.Equal(doc, again) {
				t.Errorf("%s seed %d: document not reproducible", name, seed)
			}
			if prev, dup := seen[string(doc)]; dup {
				t.Errorf("%s: seeds %d and %d give the same document", name, prev, seed)
			}
			seen[string(doc)] = seed
		}
	}
}

func TestKilledChipsAndFirstKill(t *testing.T) {
	wl := &workload.Workload{
		Run: workload.Run{BioMS: 50},
		Campaign: &workload.Campaign{Events: []workload.Event{
			{AtMS: 5, Kind: workload.EvFailLink, X: 1, Y: 1, Dir: "E"},
			{AtMS: 30, Kind: workload.EvFailChip, X: 2, Y: 2},
			{AtMS: 31, Kind: workload.EvFailChip, X: 2, Y: 2},
			{AtMS: 20, Kind: workload.EvChipStorm, Count: 4},
			{AtMS: 10, Kind: workload.EvSever, Region: &workload.Region{W: 2, H: 2}},
		}},
	}
	if got := killedChips(wl); got != 5 {
		t.Errorf("killedChips = %d, want 5 (one repeated fail_chip, a storm of 4)", got)
	}
	if got := firstKillMS(wl); got != 20 {
		t.Errorf("firstKillMS = %d, want 20 (link faults and severs kill nothing)", got)
	}
	if got := firstKillMS(&workload.Workload{Run: workload.Run{BioMS: 50}}); got != 50 {
		t.Errorf("firstKillMS without a campaign = %d, want the run length 50", got)
	}
}

func TestReportDiff(t *testing.T) {
	a := &spinngo.RunReport{BioTimeMS: 10, TotalSpikes: 5, EnergyJ: 1.5}
	b := *a
	if d := reportDiff(a, &b); d != "" {
		t.Errorf("equal reports differ: %s", d)
	}
	b.EnergyJ = 1.25
	if d := reportDiff(a, &b); d != "EnergyJ 1.5 != 1.25" {
		t.Errorf("reportDiff = %q", d)
	}
	if d := reportDiff(a, nil); d == "" {
		t.Error("a missing report compares equal")
	}
}

func TestSeveredChipsAndPayload(t *testing.T) {
	wl := &workload.Workload{Campaign: &workload.Campaign{Events: []workload.Event{
		{AtMS: 5, Kind: workload.EvSever, Region: &workload.Region{X: 1, Y: 1, W: 2, H: 3}},
		{AtMS: 9, Kind: workload.EvChipStorm, Count: 2, Region: &workload.Region{X: 4, Y: 4, W: 2, H: 2}},
		{AtMS: 9, Kind: workload.EvSever, Region: &workload.Region{X: 6, Y: 0, W: 1, H: 1}},
	}}}
	if got := severedChips(wl); got != 7 {
		t.Errorf("severedChips = %d, want 7 (a 2x3 and a 1x1 region)", got)
	}
	if got := severedChips(&workload.Workload{}); got != 0 {
		t.Errorf("severedChips without a campaign = %d", got)
	}
	p := fillPayload(9, 13)
	if len(p) != 13 || !bytes.Equal(p, fillPayload(9, 13)) || bytes.Equal(p, fillPayload(10, 13)) {
		t.Errorf("payload not sized, reproducible and seed-dependent: %x", p)
	}
}

// poissonMachine runs a small machine whose one Poisson population fires
// at rateHz.
func poissonMachine(t *testing.T, rateHz float64) *spinngo.Machine {
	t.Helper()
	m, err := spinngo.NewMachine(spinngo.MachineConfig{Width: 2, Height: 2, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if _, err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	model := spinngo.NewModel()
	model.AddPoisson("src", 200, rateHz)
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPoissonCheck: the rate check passes on a machine firing at the
// declared rate and fails when the document declares another one.
func TestPoissonCheck(t *testing.T) {
	m := poissonMachine(t, 50)
	doc := func(rate float64) *workload.Workload {
		return &workload.Workload{
			Populations: []workload.Population{{Name: "src", Kind: workload.PopPoisson, Size: 200, RateHz: rate}},
			Run:         workload.Run{BioMS: 200},
		}
	}
	counts, err := poissonCounts(m, doc(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 1 || math.Abs(counts[0].z) > poissonZLimit {
		t.Errorf("declared rate rejected: %+v", counts)
	}
	counts, err = poissonCounts(m, doc(40))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(counts[0].z) <= poissonZLimit {
		t.Errorf("a 20%% rate error passed: %+v", counts[0])
	}
}

// TestWorkloadSmoke runs each workload once, with a budget so small
// that only the minimum rounds run, and requires every check to pass.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("each workload takes 20-60 s")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			r, err := newRunner(specs[name], 2, 1e-3, false, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			r.run()
			if len(r.failures) != 0 {
				t.Fatalf("failures: %v", r.failures)
			}
			if m := r.missing(); len(m) != 0 {
				t.Fatalf("no samples for %v", m)
			}
			e2e := r.endToEnd()
			for _, m := range endToEnd {
				if !(e2e[m.name] > 0) {
					t.Errorf("%s = %v, want a positive figure", m.name, e2e[m.name])
				}
			}
			if got := len(r.runCPU); got != minRounds {
				t.Errorf("%d timed rounds, want %d", got, minRounds)
			}
			if r.ops["check"].attempted == 0 {
				t.Error("no checks ran")
			}
		})
	}
}

// TestFailedSetupIsIncorrect: a workload whose set-up fails reports
// correct false, its failed set-up and no figures it did not measure,
// and exits 1.
func TestFailedSetupIsIncorrect(t *testing.T) {
	specs["unplaceable"] = &spec{
		name: "unplaceable",
		why:  "more neurons than the machine has cores for",
		gen: func(seed uint64) *workload.Workload {
			return &workload.Workload{
				SchemaV: workload.Schema,
				Name:    "unplaceable",
				Machine: workload.Machine{Width: 1, Height: 1, Seed: seed + 1, Workers: 1,
					MaxAppCoresPerChip: 1, MaxNeuronsPerCore: 1},
				Populations: []workload.Population{{Name: "net", Kind: workload.PopLIF, Size: 100}},
				Run:         workload.Run{BioMS: 10, ChunkMS: 10},
			}
		},
		altWorkers:   1,
		altPartition: "bands",
	}
	defer delete(specs, "unplaceable")
	var out bytes.Buffer
	code := run([]string{"--workload", "unplaceable", "--seed", "1", "--seconds", "1"}, &out, io.Discard)
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatalf("%v in output:\n%s", err, out.String())
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("result %+v, want incorrect with one failed set-up", res)
	}
}
