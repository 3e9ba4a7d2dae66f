package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/module"
	"repro/internal/scenario"
	"repro/internal/spec"
)

// Graph shape shared by every workload: 8 layers of 12 detectors, each
// fed by 2 of the previous layer, so 96 vertices and 12 sources.
const (
	graphDepth = 8
	graphWidth = 12
	graphFanIn = 2
)

// Sparse rewrite of flock-durable-sparse: every source becomes a spike
// source firing with this probability, and every window parameter is
// multiplied by windowScale so moved vertices carry KB-scale state.
const (
	sparseSpikeProb = 0.05
	windowScale     = 64
)

// makeSpec derives the workload's computation. The graph seed draws
// the detector graph: a layered graph populated with registry modules
// by scenario.FromGraph, then (sparse only) the spike and window
// rewrite. The stream seed draws the event streams: it is the
// simulation seed every module's own seed derives from. Everything is
// a pure function of the two seeds and sparse.
func makeSpec(graphSeed, streamSeed uint64, sparse bool) (*spec.Spec, error) {
	rng := rand.New(rand.NewPCG(graphSeed, 0x9E7BE4C4))
	ng, err := graph.Layered(graphDepth, graphWidth, graphFanIn, rng).Number()
	if err != nil {
		return nil, fmt.Errorf("numbering the layered graph: %w", err)
	}
	sc, err := scenario.FromGraph(ng, fmt.Sprintf("perfbench-%d", graphSeed), graphSeed)
	if err != nil {
		return nil, err
	}
	s := sc.Spec
	s.Simulation.Seed = streamSeed
	if !sparse {
		return s, nil
	}
	for i := range s.Vertices {
		vs := &s.Vertices[i]
		if ng.IsSource(i + 1) {
			vs.Type = "spike"
			vs.Params = []spec.ParamSpec{
				{Name: "prob", Value: strconv.FormatFloat(sparseSpikeProb, 'g', -1, 64)},
				{Name: "magnitude", Value: strconv.FormatFloat(5+10*rng.Float64(), 'g', -1, 64)},
				{Name: "noise", Value: strconv.FormatFloat(rng.Float64(), 'g', -1, 64)},
			}
			continue
		}
		for j := range vs.Params {
			if vs.Params[j].Name != "window" {
				continue
			}
			w, err := strconv.Atoi(vs.Params[j].Value)
			if err != nil {
				return nil, fmt.Errorf("vertex %s: window %q: %w", vs.ID, vs.Params[j].Value, err)
			}
			vs.Params[j].Value = strconv.Itoa(w * windowScale)
		}
	}
	return s, nil
}

// build materializes a fresh, independent instance of the computation.
func build(s *spec.Spec) (*spec.Built, error) {
	return s.Build(module.NewRegistry())
}

// oracle is the sequential reference for one (spec, phase count): its
// sink digests and how fast it produced them.
type oracle struct {
	phases       int
	digests      map[string]string
	phasesPerSec float64
}

// runOracle executes the computation on baseline.Sequential over fresh
// modules.
func runOracle(s *spec.Spec, phases int) (oracle, error) {
	b, err := build(s)
	if err != nil {
		return oracle{}, err
	}
	t0 := time.Now()
	if _, err := baseline.Sequential(b.Graph, b.Modules, make([][]core.ExtInput, phases)); err != nil {
		return oracle{}, fmt.Errorf("sequential oracle: %w", err)
	}
	el := time.Since(t0)
	d := scenario.Digests(b)
	if len(d) == 0 {
		return oracle{}, fmt.Errorf("the computation has no digestable sink")
	}
	return oracle{phases: phases, digests: d, phasesPerSec: float64(phases) / el.Seconds()}, nil
}

// check compares a finished run's sink digests, read from the
// unwrapped modules of b, against the oracle's.
func (o oracle) check(b *spec.Built) error {
	got := scenario.Digests(b)
	if len(got) != len(o.digests) {
		return fmt.Errorf("run has %d digestable sinks, the oracle %d", len(got), len(o.digests))
	}
	for id, want := range o.digests {
		if got[id] != want {
			return fmt.Errorf("sink %s diverges from the sequential oracle", id)
		}
	}
	return nil
}

// vertexTypes maps each 1-based vertex to its module type name.
func vertexTypes(s *spec.Spec, b *spec.Built) []string {
	types := make([]string, b.Graph.N()+1)
	for _, vs := range s.Vertices {
		types[b.IndexOf[vs.ID]] = vs.Type
	}
	return types
}
