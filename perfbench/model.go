package main

import (
	"fmt"

	"spinngo"
	"spinngo/internal/mapping"
	"spinngo/internal/neural"
	"spinngo/internal/workload"
)

// The traced run builds its machine step by step through the public
// API — NewMachine+Boot, Load, then the stimuli and campaign — so each
// step gets its own span. The untraced run calls PrepareWorkload; the
// traced run's RunReport must equal the untraced one, which also checks
// that these steps and PrepareWorkload agree.

// machineConfig maps the document's machine onto MachineConfig.
func machineConfig(m *workload.Machine) spinngo.MachineConfig {
	cfg := spinngo.MachineConfig{
		Width: m.Width, Height: m.Height, Seed: m.Seed,
		Workers: m.Workers, Partition: m.Partition,
		Boards: m.Boards, BoardLinkParams: m.BoardLink,
		Cabinets: m.Cabinets, CabinetLinkParams: m.CabinetLink,
		HostOrigin:              m.HostOrigin,
		MaxAppCoresPerChip:      m.MaxAppCoresPerChip,
		MaxNeuronsPerCore:       m.MaxNeuronsPerCore,
		FillRedundancy:          m.FillRedundancy,
		CoreFaultProb:           m.CoreFaultProb,
		DisableEmergencyRouting: m.NoEmergencyRouting,
	}
	if m.Repartition {
		cfg.Repartition = spinngo.RepartitionAuto
	}
	return cfg
}

// publicModel builds the document's network through the public Model API.
func publicModel(wl *workload.Workload) (*spinngo.Model, error) {
	model := spinngo.NewModel()
	pops := make(map[string]spinngo.Pop, len(wl.Populations))
	for _, p := range wl.Populations {
		switch p.Kind {
		case workload.PopPoisson:
			pops[p.Name] = model.AddPoisson(p.Name, p.Size, p.RateHz)
		case workload.PopLIF:
			cfg := spinngo.DefaultLIFConfig()
			cfg.BiasNA = p.BiasNA
			pops[p.Name] = model.AddLIF(p.Name, p.Size, cfg)
		case workload.PopIzhikevich:
			cfg := izhConfig(p.Preset)
			cfg.BiasNA = p.BiasNA
			pops[p.Name] = model.AddIzhikevich(p.Name, p.Size, cfg)
		default:
			return nil, fmt.Errorf("population kind %q", p.Kind)
		}
	}
	for _, pr := range wl.Projections {
		conn := spinngo.Conn{
			P: pr.P, Fanout: pr.Fanout, WeightNA: pr.WeightNA, DelayMS: pr.DelayMS,
			Inhibitory: pr.Inhibitory, Seed: pr.Seed,
		}
		if conn.DelayMS == 0 {
			conn.DelayMS = 1
		}
		switch pr.Rule {
		case workload.RuleAll:
			conn.Rule = spinngo.AllToAllRule
		case workload.RuleOne:
			conn.Rule = spinngo.OneToOneRule
		case workload.RuleProb:
			conn.Rule = spinngo.RandomRule
		case workload.RuleFanout:
			conn.Rule = spinngo.FanoutRule
		default:
			return nil, fmt.Errorf("projection rule %q", pr.Rule)
		}
		if pr.STDP {
			conn.STDP = spinngo.DefaultSTDPRule()
		}
		if err := model.Connect(pops[pr.From], pops[pr.To], conn); err != nil {
			return nil, fmt.Errorf("projection %s->%s: %w", pr.From, pr.To, err)
		}
	}
	return model, nil
}

func izhConfig(preset string) spinngo.IzhikevichConfig {
	switch preset {
	case workload.IzhFast:
		return spinngo.FastSpikingConfig()
	case workload.IzhChattering:
		return spinngo.ChatteringConfig()
	}
	return spinngo.RegularSpikingConfig()
}

// arm schedules the document's stimuli and campaign on a loaded machine
// through the public injection and fault-scheduling calls.
func arm(m *spinngo.Machine, wl *workload.Workload) error {
	for _, s := range wl.Stimuli {
		pop, ok := m.Pop(s.Pop)
		if !ok {
			return fmt.Errorf("stimulus population %q not loaded", s.Pop)
		}
		switch s.Kind {
		case workload.StimSpike:
			if err := m.InjectSpike(pop, s.Neuron, s.AtMS); err != nil {
				return err
			}
		case workload.StimScan:
			// The scan schedule the schema documents: Count spikes at
			// neurons (ms*17 + k*Stride) mod size every EveryMS.
			for ms := s.StartMS; ms <= s.EndMS; ms += s.EveryMS {
				for k := 0; k < s.Count; k++ {
					if err := m.InjectSpike(pop, (ms*17+k*s.Stride)%pop.Size(), ms); err != nil {
						return err
					}
				}
			}
		default:
			return fmt.Errorf("stimulus kind %q", s.Kind)
		}
	}
	if wl.Campaign == nil {
		return nil
	}
	for _, f := range wl.Campaign.Expand(wl.Machine.Width, wl.Machine.Height) {
		var err error
		switch f.Kind {
		case workload.EvFailLink:
			err = m.ScheduleFailLink(f.AtMS, f.X, f.Y, f.Dir)
		case workload.EvRepairLink:
			err = m.ScheduleRepairLink(f.AtMS, f.X, f.Y, f.Dir)
		case workload.EvFailChip:
			err = m.ScheduleFailChip(f.AtMS, f.X, f.Y)
		default:
			err = fmt.Errorf("unexpanded campaign kind %q", f.Kind)
		}
		if err != nil {
			return fmt.Errorf("campaign %s at %dms: %w", f.Kind, f.AtMS, err)
		}
	}
	return nil
}

// mappingNetwork builds the document's network in the mapping layer's
// own types, the input of the mapping.compile harness.
func mappingNetwork(wl *workload.Workload) *mapping.Network {
	net := &mapping.Network{}
	pops := make(map[string]*mapping.Population, len(wl.Populations))
	for _, p := range wl.Populations {
		mp := &mapping.Population{Name: p.Name, N: p.Size, RateHz: p.RateHz, BiasNA: p.BiasNA, Record: true}
		switch p.Kind {
		case workload.PopPoisson:
			mp.Kind = mapping.ModelPoisson
		case workload.PopLIF:
			mp.Kind = mapping.ModelLIF
			c := spinngo.DefaultLIFConfig()
			mp.LIF = neural.LIFParams{TauM: c.TauM, VRest: c.VRest, VReset: c.VReset,
				VThresh: c.VThresh, RMem: c.RMem, TRefrac: c.TRefrac}
		case workload.PopIzhikevich:
			mp.Kind = mapping.ModelIzhikevich
			c := izhConfig(p.Preset)
			mp.Izh = neural.IzhikevichParams{A: c.A, B: c.B, C: c.C, D: c.D}
		}
		pops[p.Name] = net.AddPopulation(mp)
	}
	for _, pr := range wl.Projections {
		mp := &mapping.Projection{
			Pre: pops[pr.From], Post: pops[pr.To],
			P: pr.P, Fanout: pr.Fanout, WeightNA: pr.WeightNA, DelayMS: pr.DelayMS,
			Inhibitory: pr.Inhibitory, Seed: pr.Seed,
		}
		if mp.DelayMS == 0 {
			mp.DelayMS = 1
		}
		switch pr.Rule {
		case workload.RuleAll:
			mp.Kind = mapping.AllToAll
		case workload.RuleOne:
			mp.Kind = mapping.OneToOne
		case workload.RuleProb:
			mp.Kind = mapping.FixedProbability
		case workload.RuleFanout:
			mp.Kind = mapping.FixedFanout
		}
		if pr.STDP {
			cfg := neural.DefaultSTDP()
			mp.STDP = &cfg
		}
		net.Connect(mp)
	}
	return net
}
