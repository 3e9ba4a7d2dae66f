// Package repro is the public face of the event-stream correlation
// library: a Go reproduction of "A Parallel Algorithm for Correlating
// Event Streams" (Zimmerman & Chandy, IPPS 2005).
//
// The library executes serializable Δ-dataflow computation graphs on a
// shared-memory multiprocessor. Vertices are computational modules
// (models, detectors, correlators); edges carry typed event messages; a
// vertex computes in a phase only when at least one of its inputs
// changed, and the absence of a message itself conveys information
// ("assumptions still hold"). The engine pipelines phases while
// guaranteeing results identical to running one phase at a time from
// sources to sinks.
//
// Quick start:
//
//	b := repro.NewBuilder()
//	src := b.Vertex("temp", &module.Sine{Mean: 20, Amp: 10, Period: 24})
//	det := b.Vertex("hot", &module.Threshold{Level: 25})
//	alerts := &module.AlertSink{}
//	out := b.Vertex("alerts", alerts)
//	b.Edge(src, det)
//	b.Edge(det, out)
//	sys, err := b.Build()
//	// ...
//	stats, err := sys.Run(repro.Options{Workers: 4, Phases: 480})
//
// See examples/ for full programs and DESIGN.md for the system map.
package repro

import (
	"context"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/event"
	"repro/internal/graph"
	"repro/internal/module"
	"repro/internal/spec"
)

// Core type aliases, so downstream code can stay within this package for
// the common cases.
type (
	// Module is one computational vertex; see core.Module.
	Module = core.Module
	// Context is a module's view of one phase execution.
	Context = core.Context
	// StepFunc adapts a function to Module.
	StepFunc = core.StepFunc
	// ExtInput is an external observation for a source vertex.
	ExtInput = core.ExtInput
	// Stats summarizes an engine run.
	Stats = core.Stats
	// Value is the typed payload events carry.
	Value = event.Value
)

// Options tunes a System run.
type Options struct {
	// Workers is the number of computation goroutines (default 1, as in
	// the paper's single-computation-thread baseline).
	Workers int
	// Phases is the number of phases to execute when no external batches
	// are supplied.
	Phases int
	// MaxInFlight bounds concurrently open phases (default 64).
	MaxInFlight int
	// Inputs optionally carries per-phase external inputs; when set it
	// overrides Phases.
	Inputs [][]ExtInput
}

// VertexID identifies a vertex during building.
type VertexID struct{ id int }

// Builder assembles a correlation graph and its modules.
type Builder struct {
	g    *graph.Graph
	mods []Module
	err  error
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{g: graph.New()} }

// Vertex adds a named vertex executing m and returns its ID.
func (b *Builder) Vertex(name string, m Module) VertexID {
	if m == nil {
		b.fail(fmt.Errorf("repro: vertex %q has nil module", name))
		return VertexID{-1}
	}
	id := b.g.AddVertex(name)
	b.mods = append(b.mods, m)
	return VertexID{id}
}

// Edge wires from → to. Errors (self-loops, duplicates, bad IDs) are
// deferred to Build so call sites stay fluent.
func (b *Builder) Edge(from, to VertexID) *Builder {
	if b.err == nil {
		if err := b.g.AddEdge(from.id, to.id); err != nil {
			b.fail(err)
		}
	}
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build numbers the graph (topological order satisfying the paper's
// S-prefix restriction) and returns the runnable System.
func (b *Builder) Build() (*System, error) {
	if b.err != nil {
		return nil, b.err
	}
	ng, err := b.g.Number()
	if err != nil {
		return nil, err
	}
	mods := make([]Module, ng.N())
	for id, m := range b.mods {
		mods[ng.IndexOf(id)-1] = m
	}
	return &System{ng: ng, mods: mods}, nil
}

// System is a built correlation computation. A System's modules are
// stateful: each System instance may be executed once (build a fresh one
// per run, as the examples do).
type System struct {
	ng   *graph.Numbered
	mods []Module
}

// N returns the number of vertices.
func (s *System) N() int { return s.ng.N() }

// Depth returns the longest source-to-sink path length.
func (s *System) Depth() int { return s.ng.Depth() }

// IndexOf returns the engine's 1-based index for a built vertex, for use
// in ExtInput addressing.
func (s *System) IndexOf(v VertexID) int { return s.ng.IndexOf(v.id) }

// DOT renders the numbered graph in Graphviz syntax.
func (s *System) DOT(title string) string { return s.ng.DOT(title) }

// Run executes the computation on the parallel engine and returns its
// stats.
func (s *System) Run(opts Options) (Stats, error) {
	eng, err := s.Engine(opts)
	if err != nil {
		return Stats{}, err
	}
	batches := opts.Inputs
	if batches == nil {
		batches = make([][]ExtInput, opts.Phases)
	}
	return eng.Run(batches)
}

// Engine builds the underlying engine for callers that need phase-level
// control (StartPhase / WaitPhase / Stop).
func (s *System) Engine(opts Options) (*core.Engine, error) {
	return core.New(s.ng, s.mods, core.Config{
		Workers:     opts.Workers,
		MaxInFlight: opts.MaxInFlight,
	})
}

// RunSequential executes the computation with the sequential oracle
// (one phase at a time, source-to-sink) — the reference semantics the
// parallel engine is guaranteed to match.
func (s *System) RunSequential(opts Options) error {
	batches := opts.Inputs
	if batches == nil {
		batches = make([][]ExtInput, opts.Phases)
	}
	_, err := baseline.Sequential(s.ng, s.mods, batches)
	return err
}

// Replica converts the built system into a distrib.Replica: a
// computation subscribing to named replicated event streams (§6 of the
// paper). subscribe maps stream names to the source vertices that
// consume them; workers sizes the replica's engine.
func (s *System) Replica(name string, workers int, subscribe map[string]VertexID) distrib.Replica {
	sub := make(map[string]int, len(subscribe))
	for stream, v := range subscribe {
		sub[stream] = s.ng.IndexOf(v.id)
	}
	return distrib.Replica{
		Name:      name,
		Graph:     s.ng,
		Modules:   s.mods,
		Subscribe: sub,
		Config:    core.Config{Workers: workers},
	}
}

// RunPartitioned executes the computation partitioned across simulated
// machines (§6 pipeline partitioning; see internal/distrib).
func (s *System) RunPartitioned(machines, workersPerMachine int, batches [][]ExtInput) (distrib.Stats, error) {
	return distrib.Run(context.Background(), distrib.RunConfig{Graph: s.ng, Mods: s.mods, Batches: batches, Dist: distrib.Config{
		Machines: machines, WorkersPerMachine: workersPerMachine,
	}})
}

// LoadSpecFile parses an XML computation specification and builds it
// with the full built-in module registry (see internal/spec for the
// format).
func LoadSpecFile(path string) (*spec.Spec, *spec.Built, error) {
	s, err := spec.ParseFile(path)
	if err != nil {
		return nil, nil, err
	}
	b, err := s.Build(module.NewRegistry())
	if err != nil {
		return nil, nil, err
	}
	return s, b, nil
}
