package distrib

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/graph"
	"repro/internal/module"
	"repro/internal/netwire"
)

// bitsSink records every incoming value as its canonical wire encoding
// plus the phase, so float and bool histories compare bit for bit.
type bitsSink struct {
	mu  sync.Mutex
	log []string
}

func (s *bitsSink) Step(ctx *core.Context) {
	if v, ok := ctx.FirstIn(); ok {
		s.mu.Lock()
		s.log = append(s.log, fmt.Sprintf("%d:%x", ctx.Phase(), netwire.AppendValue(nil, v)))
		s.mu.Unlock()
	}
}

// buildWindowChain is the multi-process migration workload: a chain
// whose interior is entirely window-backed modules (Smoother,
// MovingAverage, ZScoreDetector), so migrating any interior vertex
// exercises the exact-accumulator snapshots. Every build returns a
// fresh, identical copy — one per simulated process, exactly as
// separate fuseworker processes each build the shared workload.
func buildWindowChain(t *testing.T) (*graph.Numbered, []core.Module, *bitsSink) {
	t.Helper()
	ng, err := graph.Chain(5).Number()
	if err != nil {
		t.Fatal(err)
	}
	sink := &bitsSink{}
	mods := []core.Module{
		core.StepFunc(func(ctx *core.Context) {
			// A real per-phase cost, so the pipeline cannot outrun the
			// control-plane round trips between trigger and pause.
			t0 := time.Now()
			for time.Since(t0) < 30*time.Microsecond {
			}
			h := mix(0xF00D ^ uint64(ctx.Phase()))
			if h%5 == 0 {
				return // Δ-sparsity: some phases are silent
			}
			ctx.EmitAll(event.Float(float64(int64(h%1000)) / 7))
		}),
		module.NewSmoother(0.3),
		module.NewMovingAverage(7, 3),
		module.NewZScoreDetector(9, 0.8, 5),
		sink,
	}
	return ng, mods, sink
}

// scriptPlanner returns a scripted sequence of partitions: epoch 0
// first, then one per replan. It makes migrations deterministic — the
// test moves specific window-backed vertices between machines
// regardless of measured times.
type scriptPlanner struct {
	seq [][]int
	at  int
}

func (p *scriptPlanner) Name() string { return "script" }
func (p *scriptPlanner) Plan(g *graph.Numbered, costs []float64, machines int) ([]int, error) {
	if p.at >= len(p.seq) {
		return nil, fmt.Errorf("script exhausted after %d plans", p.at)
	}
	s := p.seq[p.at]
	p.at++
	return append([]int(nil), s...), nil
}

// workerResult is one simulated worker process's outcome.
type workerResult struct {
	machine int
	rep     ParticipantReport
	err     error
}

// TestCoordinatorMultiProcess is the acceptance sweep for the
// transport-agnostic control plane: one ServeParticipant per machine —
// each holding its OWN copy of the workload, like separate OS
// processes — coordinated through control channels (in-process pipes
// for the chan variant, real loopback TCP control connections for tcp)
// with data links to match. The scripted planner forces window-backed
// modules (Smoother, MovingAverage, ZScoreDetector) to migrate between
// participants mid-window, so their state crosses a genuine
// serialize/route/restore round-trip; the sink history must stay
// bit-identical to the sequential oracle.
func TestCoordinatorMultiProcess(t *testing.T) {
	const machines, phases = 2, 150
	batches := make([][]core.ExtInput, phases)

	// Oracle.
	ngRef, modsRef, sinkRef := buildWindowChain(t)
	if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
		t.Fatal(err)
	}

	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			before := countGoroutines()
			// Epoch 0: machine 0 owns 1..3. First switch moves the
			// MovingAverage (3) to machine 1; second moves it back along
			// with the ZScoreDetector (4). All mid-window.
			script := &scriptPlanner{seq: [][]int{{1, 4}, {1, 3}, {1, 5}}}

			var exchange *linkExchange
			var hosts []*WireHost
			if transport == "chan" {
				exchange = newLinkExchange(ChannelNetwork{})
			} else {
				addrs := make([]string, machines)
				tmp := make([]*netwire.Listener, machines)
				for m := range addrs {
					ln, err := netwire.Listen("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					addrs[m] = ln.Addr()
					tmp[m] = ln
				}
				for _, ln := range tmp {
					ln.Close()
				}
				hosts = make([]*WireHost, machines)
				for m := range hosts {
					h, err := NewWireHost(m, addrs, netwire.Backoff{Base: 5 * time.Millisecond, Attempts: 40})
					if err != nil {
						t.Fatal(err)
					}
					hosts[m] = h
					defer h.Close()
				}
			}

			results := make(chan workerResult, machines)
			parts := make([]Participant, machines)
			var coordSink *bitsSink
			var coordGraph *graph.Numbered
			for m := 0; m < machines; m++ {
				ng, mods, sink := buildWindowChain(t)
				if m == machines-1 {
					coordSink = sink // the sink vertex never leaves the last machine
				}
				if m == 0 {
					coordGraph = ng
				}
				var wire WireFunc
				var ch, coordCh CtlChannel
				if transport == "chan" {
					wire = exchange.wireFor(m)
					coordCh, ch = NewCtlPipe()
				} else {
					wire = hosts[m].Wire
					if m == 0 {
						coordCh, ch = NewCtlPipe()
					} else {
						conn, err := hosts[m].DialCtl(0)
						if err != nil {
							t.Fatal(err)
						}
						ch = conn
						acc, err := hosts[0].AcceptCtl(5 * time.Second)
						if err != nil {
							t.Fatal(err)
						}
						if acc.Handshake().From != m {
							t.Fatalf("control channel from machine %d, want %d", acc.Handshake().From, m)
						}
						coordCh = acc
					}
				}
				rp := NewRemoteParticipant(coordCh, fmt.Sprintf("machine %d", m))
				rp.AckTimeout = 10 * time.Second
				parts[m] = rp
				wc := WorkerConfig{
					Machine: m, Graph: ng, Mods: mods,
					Config:  Config{WorkersPerMachine: 2, MaxInFlight: 8, Buffer: 4},
					Batches: batches,
					Wire:    wire,
				}
				go func(m int) {
					rep, err := ServeParticipant(ch, wc)
					results <- workerResult{m, rep, err}
				}(m)
			}

			co := &Coordinator{
				Graph:        coordGraph,
				Machines:     machines,
				Phases:       phases,
				Planner:      script,
				Rebalance:    RebalanceConfig{ForceEvery: 12, MinRemaining: 10, MaxRebalances: 2},
				Participants: parts,
			}
			events, err := co.Run()
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			for i := 0; i < machines; i++ {
				r := <-results
				if r.err != nil {
					t.Fatalf("worker %d: %v", r.machine, r.err)
				}
			}
			if len(events) != 2 {
				t.Fatalf("recorded %d epoch switches, want 2 (barriers %v)", len(events), eventBarriers(events))
			}
			moved, serialized := 0, 0
			for _, ev := range events {
				moved += ev.Moved
				serialized += ev.Serialized
			}
			if moved < 3 {
				t.Errorf("scripted plans moved %d vertices, want ≥3", moved)
			}
			if serialized != moved {
				t.Errorf("%d of %d migrating vertices crossed the Snapshotter path (cross-process moves must all serialize)", serialized, moved)
			}
			if len(coordSink.log) == 0 {
				t.Fatal("sink recorded nothing")
			}
			if len(coordSink.log) != len(sinkRef.log) {
				t.Fatalf("sink saw %d values, oracle %d", len(coordSink.log), len(sinkRef.log))
			}
			for i := range coordSink.log {
				if coordSink.log[i] != sinkRef.log[i] {
					t.Fatalf("entry %d: %s vs oracle %s", i, coordSink.log[i], sinkRef.log[i])
				}
			}
			for _, h := range hosts {
				h.Close()
			}
			if after := waitGoroutinesBelow(before, 10*time.Second); after > before {
				t.Errorf("goroutine leak: %d before, %d after", before, after)
			}
		})
	}
}

func eventBarriers(events []RebalanceEvent) []int {
	out := make([]int, 0, len(events))
	for _, ev := range events {
		out = append(out, ev.Barrier)
	}
	return out
}

// stubCtl scripts one side of a control channel for protocol-violation
// tests: canned replies per request kind, then silence or stale
// epochs.
type stubCtl struct {
	mu      sync.Mutex
	sent    []netwire.WireFrame
	replies chan netwire.WireFrame
	closed  chan struct{}
	once    sync.Once
	// onSend, when set, receives every frame the coordinator sends and
	// may push replies.
	onSend func(f netwire.WireFrame, replies chan<- netwire.WireFrame)
}

func newStubCtl(onSend func(f netwire.WireFrame, replies chan<- netwire.WireFrame)) *stubCtl {
	return &stubCtl{
		replies: make(chan netwire.WireFrame, 16),
		closed:  make(chan struct{}),
		onSend:  onSend,
	}
}

func (s *stubCtl) Send(f netwire.WireFrame) error {
	s.mu.Lock()
	s.sent = append(s.sent, f)
	s.mu.Unlock()
	if s.onSend != nil {
		s.onSend(f, s.replies)
	}
	return nil
}

func (s *stubCtl) Recv() (netwire.WireFrame, error) {
	select {
	case f := <-s.replies:
		return f, nil
	case <-s.closed:
		return netwire.WireFrame{}, errCtlClosed
	}
}

func (s *stubCtl) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// TestRemoteParticipantAckTimeout: a worker that never acks a pause
// fails the coordinator with a timeout naming the frame, instead of
// hanging the run — and the channel is torn down so nothing leaks.
func TestRemoteParticipantAckTimeout(t *testing.T) {
	before := countGoroutines()
	stub := newStubCtl(nil) // silent worker: no replies, ever
	rp := NewRemoteParticipant(stub, "machine 1")
	rp.AckTimeout = 50 * time.Millisecond
	_, err := rp.Pause()
	if err == nil || !strings.Contains(err.Error(), "no ack") {
		t.Fatalf("silent worker produced %v, want an ack timeout", err)
	}
	select {
	case <-stub.closed:
	case <-time.After(time.Second):
		t.Error("timeout did not tear the control channel down")
	}
	if after := waitGoroutinesBelow(before, 5*time.Second); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestRemoteParticipantStaleEpochReply: a reply tagged with another
// epoch is rejected as stale — the control-plane extension of the
// data-plane stale-epoch rule.
func TestRemoteParticipantStaleEpochReply(t *testing.T) {
	stub := newStubCtl(func(f netwire.WireFrame, replies chan<- netwire.WireFrame) {
		if f.Kind == netwire.FramePoll {
			replies <- netwire.WireFrame{Kind: netwire.FrameProgress, Epoch: f.Epoch + 7, Phase: 3}
		}
	})
	rp := NewRemoteParticipant(stub, "machine 1")
	rp.AckTimeout = time.Second
	_, err := rp.Poll()
	if err == nil || !strings.Contains(err.Error(), "stale-epoch") {
		t.Fatalf("stale reply produced %v, want a stale-epoch rejection", err)
	}
}

// TestRemoteParticipantKeepsRootCause: a worker that aborts queues its
// root cause and closes the channel. A request racing that close must
// report the queued abort, not the bare closed channel it ran into.
func TestRemoteParticipantKeepsRootCause(t *testing.T) {
	coordCh, workerCh := NewCtlPipe()
	workerCh.Send(netwire.WireFrame{Kind: netwire.FrameAbort, Msg: "injected root cause"})
	workerCh.Close()
	rp := NewRemoteParticipant(coordCh, "machine 1")
	_, err := rp.Poll()
	if err == nil || !strings.Contains(err.Error(), "injected root cause") {
		t.Fatalf("poll after the worker's abort returned %v, want the worker's root cause", err)
	}
}

// TestServeParticipantStaleEpochFrame: a worker that receives a
// control frame for another epoch aborts cleanly, naming the rule.
func TestServeParticipantStaleEpochFrame(t *testing.T) {
	before := countGoroutines()
	ng, mods, _ := buildWindowChain(t)
	coordCh, workerCh := NewCtlPipe()
	done := make(chan error, 1)
	go func() {
		_, err := ServeParticipant(workerCh, WorkerConfig{
			Machine: 0, Graph: ng, Mods: mods,
			Config:  Config{WorkersPerMachine: 1, MaxInFlight: 4, Buffer: 2},
			Batches: make([][]core.ExtInput, 10),
			Wire: func(d *Deployment, epoch int) (map[int]Transport, map[int]Transport, error) {
				return nil, nil, nil
			},
		})
		done <- err
	}()
	// A poll for epoch 3 before any epoch started.
	coordCh.Send(netwire.WireFrame{Kind: netwire.FramePoll, Epoch: 3})
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not abort on a stale-epoch control frame")
	}
	if err == nil || !strings.Contains(err.Error(), "stale-epoch") {
		t.Fatalf("worker returned %v, want a stale-epoch abort", err)
	}
	coordCh.Close()
	if after := waitGoroutinesBelow(before, 5*time.Second); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestCoordinatorParticipantCrash: one worker's control channel dying
// mid-run (the process-crash signature) aborts the whole coordinated
// run cleanly — the coordinator errors, the surviving worker is
// aborted with the root cause, and nothing wedges or leaks — over
// chan control channels and over real TCP ones (closing a worker's
// CtlConn is exactly the socket-death signature a process crash
// leaves).
func TestCoordinatorParticipantCrash(t *testing.T) {
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			testParticipantCrash(t, transport)
		})
	}
}

func testParticipantCrash(t *testing.T, transport string) {
	const machines, phases = 2, 3000
	before := countGoroutines()
	batches := make([][]core.ExtInput, phases)
	script := &scriptPlanner{seq: [][]int{{1, 4}}}

	var exchange *linkExchange
	var hosts []*WireHost
	if transport == "chan" {
		exchange = newLinkExchange(ChannelNetwork{})
	} else {
		addrs := make([]string, machines)
		for m := range addrs {
			ln, err := netwire.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[m] = ln.Addr()
			ln.Close()
		}
		hosts = make([]*WireHost, machines)
		for m := range hosts {
			h, err := NewWireHost(m, addrs, netwire.Backoff{Base: 5 * time.Millisecond, Attempts: 40})
			if err != nil {
				t.Fatal(err)
			}
			hosts[m] = h
			defer h.Close()
		}
	}

	results := make(chan workerResult, machines)
	parts := make([]Participant, machines)
	var coordGraph *graph.Numbered
	var victim CtlChannel
	for m := 0; m < machines; m++ {
		ng, mods, _ := buildWindowChain(t)
		if m == 0 {
			coordGraph = ng
		}
		var ch, coordCh CtlChannel
		var wire WireFunc
		if transport == "chan" {
			coordCh, ch = NewCtlPipe()
			wire = exchange.wireFor(m)
		} else {
			wire = hosts[m].Wire
			if m == 0 {
				coordCh, ch = NewCtlPipe()
			} else {
				conn, err := hosts[m].DialCtl(0)
				if err != nil {
					t.Fatal(err)
				}
				ch = conn
				acc, err := hosts[0].AcceptCtl(5 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				coordCh = acc
			}
		}
		if m == 1 {
			victim = ch
		}
		rp := NewRemoteParticipant(coordCh, fmt.Sprintf("machine %d", m))
		rp.AckTimeout = 10 * time.Second
		parts[m] = rp
		wc := WorkerConfig{
			Machine: m, Graph: ng, Mods: mods,
			Config:  Config{WorkersPerMachine: 1, MaxInFlight: 8, Buffer: 4},
			Batches: batches,
			Wire:    wire,
		}
		go func(m int) {
			rep, err := ServeParticipant(ch, wc)
			results <- workerResult{m, rep, err}
		}(m)
	}

	// Kill worker 1's control channel shortly into the run — the
	// coordinator is blocked in AwaitQuiesce by then.
	go func() {
		time.Sleep(20 * time.Millisecond)
		victim.Close()
	}()

	co := &Coordinator{
		Graph:    coordGraph,
		Machines: machines,
		Phases:   phases,
		Planner:  script,
		// An unreachable skew threshold keeps the drift monitor from
		// ever triggering: the only mid-run event is the crash.
		Rebalance:    RebalanceConfig{SkewThreshold: 1e12},
		Participants: parts,
	}
	done := make(chan error, 1)
	go func() {
		_, err := co.Run()
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator wedged after participant crash")
	}
	if err == nil || !strings.Contains(err.Error(), "machine 1") {
		t.Fatalf("coordinator returned %v, want the dead participant named", err)
	}
	for i := 0; i < machines; i++ {
		select {
		case <-results:
		case <-time.After(30 * time.Second):
			t.Fatalf("worker %d never returned after the crash", i)
		}
	}
	for _, h := range hosts {
		h.Close()
	}
	if after := waitGoroutinesBelow(before, 10*time.Second); after > before {
		t.Errorf("goroutine leak after crash: %d before, %d after", before, after)
	}
}

// A migrating vertex without core.Snapshotter moves by reference
// between workers that share one module slice, and is refused between
// separate processes, which would otherwise drop its state.
func TestLeavingSnapsByReference(t *testing.T) {
	noop := core.StepFunc(func(*core.Context) {})
	mods := []core.Module{noop, noop, &snapMod{state: 5}, noop}
	// Machine 0 owns 1..3, then only 1: vertices 2 and 3 leave it.
	oldStarts, newStarts := []int{1, 4}, []int{1, 2}

	snaps, err := leavingSnaps(mods, 0, oldStarts, newStarts, newSnapCache(), true)
	if err != nil {
		t.Fatalf("shared modules: %v", err)
	}
	if len(snaps) != 1 || snaps[0].Vertex != 3 {
		t.Errorf("shared modules shipped %+v, want only vertex 3's snapshot", snaps)
	}
	if _, err := leavingSnaps(mods, 0, oldStarts, newStarts, newSnapCache(), false); err == nil ||
		!strings.Contains(err.Error(), "vertex 2") {
		t.Errorf("separate processes: got %v, want vertex 2 refused", err)
	}
}
