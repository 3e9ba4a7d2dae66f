package distrib

import (
	"fmt"
	"path/filepath"
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
	"repro/internal/wal"
)

// snapSource is the deterministic phase-keyed source of the migration
// workload, made checkpointable: it holds no state (every phase's
// output is a pure function of the phase number), so its snapshot is
// empty. Durable workers require core.Snapshotter on every owned
// vertex — including stateless ones.
type snapSource struct{}

func (snapSource) Step(ctx *core.Context) {
	t0 := time.Now()
	for time.Since(t0) < 30*time.Microsecond {
	}
	h := mix(0xF00D ^ uint64(ctx.Phase()))
	if h%5 == 0 {
		return // Δ-sparsity: some phases are silent
	}
	ctx.EmitAll(event.Float(float64(int64(h%1000)) / 7))
}
func (snapSource) SnapshotState() ([]byte, error) { return nil, nil }
func (snapSource) RestoreState([]byte) error      { return nil }

// snapSink records every incoming value as its canonical wire encoding
// plus the phase (like bitsSink) and checkpoints its whole record, so
// a rollback rewinds the recorded history too — entries the discarded
// epoch appended must vanish, or the replay would duplicate them.
type snapSink struct {
	mu  sync.Mutex
	log []string
}

func (s *snapSink) Step(ctx *core.Context) {
	if v, ok := ctx.FirstIn(); ok {
		s.mu.Lock()
		s.log = append(s.log, fmt.Sprintf("%d:%x", ctx.Phase(), netwire.AppendValue(nil, v)))
		s.mu.Unlock()
	}
}

func (s *snapSink) SnapshotState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return []byte(strings.Join(s.log, "\n")), nil
}

func (s *snapSink) RestoreState(state []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(state) == 0 {
		s.log = nil
		return nil
	}
	s.log = strings.Split(string(state), "\n")
	return nil
}

func (s *snapSink) history() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.log...)
}

// buildDurableChain is buildWindowChain with every vertex
// checkpointable, as a WAL-backed worker requires.
func buildDurableChain(t *testing.T) (*graph.Numbered, []core.Module, *snapSink) {
	t.Helper()
	ng, err := graph.Chain(5).Number()
	if err != nil {
		t.Fatal(err)
	}
	sink := &snapSink{}
	mods := []core.Module{
		snapSource{},
		module.NewSmoother(0.3),
		module.NewMovingAverage(7, 3),
		module.NewZScoreDetector(9, 0.8, 5),
		sink,
	}
	return ng, mods, sink
}

// openWAL opens a machine's log under the shared test signature.
func openWAL(t *testing.T, dir string, machine, machines, phases int) *wal.Log {
	t.Helper()
	sig := fmt.Sprintf("chain5/machines=%d/phases=%d", machines, phases)
	l, err := wal.Open(filepath.Join(dir, fmt.Sprintf("machine-%d.wal", machine)), machine, sig)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestCoordinatorRecoveryRejoin is the crash-rejoin acceptance test
// (DESIGN.md §10): a durable multi-process run loses one worker's
// control channel mid-epoch — the process-crash signature — and a
// restarted instance of that worker (fresh modules, same WAL) rejoins.
// The coordinator rolls every participant back to the common stable
// checkpoint and relaunches; the sink history must come out
// bit-identical to the sequential oracle, over chan control channels
// and over real loopback TCP.
func TestCoordinatorRecoveryRejoin(t *testing.T) {
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			testRecoveryRejoin(t, transport)
		})
	}
}

func testRecoveryRejoin(t *testing.T, transport string) {
	const machines, phases = 2, 3000
	batches := make([][]core.ExtInput, phases)

	// Oracle.
	ngRef, modsRef, sinkRef := buildDurableChain(t)
	if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
		t.Fatal(err)
	}

	walDir := t.TempDir()
	// Epoch 0: machine 0 owns 1..3. The one switch moves the
	// MovingAverage (3) to machine 1, so the victim's checkpoint holds
	// mid-window accumulator state.
	script := &scriptPlanner{seq: [][]int{{1, 4}, {1, 3}}}

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
	wireFor := func(m int) WireFunc {
		if transport == "chan" {
			return exchange.wireFor(m)
		}
		return hosts[m].Wire
	}

	results := make(chan workerResult, machines+1)
	parts := make([]Participant, machines)
	var victimCtl CtlChannel
	for m := 0; m < machines; m++ {
		ng, mods, _ := buildDurableChain(t)
		var ch, coordCh CtlChannel
		if transport == "chan" || m == 0 {
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
		if m == 1 {
			victimCtl = ch
		}
		rp := NewRemoteParticipant(coordCh, fmt.Sprintf("machine %d", m))
		rp.AckTimeout = 20 * time.Second
		parts[m] = rp
		wc := WorkerConfig{
			Machine: m, Graph: ng, Mods: mods,
			Config:  Config{WorkersPerMachine: 1, MaxInFlight: 8, Buffer: 4},
			Batches: batches,
			Wire:    wireFor(m),
			WAL:     openWAL(t, walDir, m, machines, phases),
		}
		go func(m int) {
			rep, err := ServeParticipant(ch, wc)
			results <- workerResult{m, rep, err}
		}(m)
	}

	rejoins := make(chan RejoinOffer, 2)
	co := &Coordinator{
		Graph:        ngRef,
		Machines:     machines,
		Phases:       phases,
		Planner:      script,
		Rebalance:    RebalanceConfig{ForceEvery: 12, MinRemaining: 10, MaxRebalances: 1},
		Participants: parts,
		Rejoins:      rejoins,
		Recovery:     RecoverConfig{Window: 30 * time.Second},
	}
	done := make(chan error, 1)
	go func() {
		_, err := co.Run()
		done <- err
	}()

	// Crash machine 1 mid-run, then restart it: a fresh worker with
	// fresh modules, the same WAL, and a new control channel presented
	// to the coordinator as a rejoin offer.
	sink2 := make(chan *snapSink, 1)
	go func() {
		time.Sleep(25 * time.Millisecond)
		victimCtl.Close()
		ng, mods, sink := buildDurableChain(t)
		var ch, coordCh CtlChannel
		if transport == "chan" {
			coordCh, ch = NewCtlPipe()
		} else {
			conn, err := hosts[1].DialCtl(0)
			if err != nil {
				t.Errorf("rejoin dial: %v", err)
				return
			}
			ch = conn
			acc, err := hosts[0].AcceptCtl(10 * time.Second)
			if err != nil {
				t.Errorf("rejoin accept: %v", err)
				return
			}
			coordCh = acc
		}
		wc := WorkerConfig{
			Machine: 1, Graph: ng, Mods: mods,
			Config:  Config{WorkersPerMachine: 1, MaxInFlight: 8, Buffer: 4},
			Batches: batches,
			Wire:    wireFor(1),
			WAL:     openWAL(t, walDir, 1, machines, phases),
			Rejoin:  true,
		}
		go func() {
			rep, err := ServeParticipant(ch, wc)
			results <- workerResult{1, rep, err}
		}()
		// Consume the worker's hello, as griddemo's rejoin listener
		// does, then hand the channel to the coordinator.
		hello, err := coordCh.Recv()
		if err != nil || hello.Kind != netwire.FrameRejoin {
			t.Errorf("rejoin hello: frame %+v, err %v", hello, err)
			return
		}
		if !hello.Done {
			t.Error("restarted worker reports no checkpoint in its WAL")
			return
		}
		sink2 <- sink
		rejoins <- RejoinOffer{Machine: 1, Ch: coordCh}
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("coordinated run wedged during recovery")
	}
	recs := co.Recoveries()
	if len(recs) != 1 {
		t.Fatalf("recorded %d recoveries, want 1", len(recs))
	}
	if len(recs[0].Machines) != 1 || recs[0].Machines[0] != 1 {
		t.Errorf("recovery rejoined machines %v, want [1]", recs[0].Machines)
	}
	if recs[0].NextEpoch <= recs[0].StableEpoch {
		t.Errorf("recovery relaunched epoch %d from stable %d", recs[0].NextEpoch, recs[0].StableEpoch)
	}

	// Three worker results: the crashed instance (whose error is the
	// crash itself), and the two clean finishers.
	clean := 0
	for i := 0; i < machines+1; i++ {
		select {
		case r := <-results:
			if r.err == nil {
				clean++
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a worker never returned")
		}
	}
	if clean != machines {
		t.Fatalf("%d workers finished cleanly, want %d", clean, machines)
	}

	var sink *snapSink
	select {
	case sink = <-sink2:
	default:
		t.Fatal("the restarted worker never rejoined")
	}
	log := sink.history()
	if len(log) == 0 {
		t.Fatal("sink recorded nothing")
	}
	ref := sinkRef.history()
	if len(log) != len(ref) {
		t.Fatalf("sink saw %d values, oracle %d", len(log), len(ref))
	}
	for i := range log {
		if log[i] != ref[i] {
			t.Fatalf("entry %d: %s vs oracle %s", i, log[i], ref[i])
		}
	}
	for _, h := range hosts {
		h.Close()
	}
}

// flakyTransport injects a data-plane death whose process survives:
// after a fixed number of frames every Send reports a wire error.
type flakyTransport struct {
	Transport
	mu   sync.Mutex
	left int
}

func (f *flakyTransport) Send(fr Frame) error {
	f.mu.Lock()
	if f.left <= 0 {
		f.mu.Unlock()
		return fmt.Errorf("injected wire failure")
	}
	f.left--
	f.mu.Unlock()
	return f.Transport.Send(fr)
}

// TestCoordinatorRecoveryEpochFail: an epoch dying on a live worker —
// a data link failing mid-run — parks the durable flock with
// FrameFailed instead of tearing it down, and the coordinator rolls
// everyone back to the stable checkpoint with no rejoin at all. The
// replayed sink history must be bit-identical to the oracle, which
// means the rollback must also rewind the entries the dead epoch had
// already appended.
func TestCoordinatorRecoveryEpochFail(t *testing.T) {
	const machines, phases = 2, 300
	batches := make([][]core.ExtInput, phases)

	ngRef, modsRef, sinkRef := buildDurableChain(t)
	if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
		t.Fatal(err)
	}

	walDir := t.TempDir()
	exchange := newLinkExchange(ChannelNetwork{})
	script := &scriptPlanner{seq: [][]int{{1, 4}, {1, 4}}}

	results := make(chan workerResult, machines)
	parts := make([]Participant, machines)
	var sink *snapSink
	for m := 0; m < machines; m++ {
		ng, mods, s := buildDurableChain(t)
		if m == 1 {
			sink = s // vertex 5 stays on machine 1 under every plan
		}
		wire := exchange.wireFor(m)
		if m == 0 {
			// Machine 0's epoch-0 egress dies after 40 frames; later
			// epochs (the recovery relaunch) run clean.
			base := wire
			wire = func(d *Deployment, epoch int) (map[int]Transport, map[int]Transport, error) {
				in, out, err := base(d, epoch)
				if err != nil || epoch != 0 {
					return in, out, err
				}
				for dst, tr := range out {
					out[dst] = &flakyTransport{Transport: tr, left: 40}
				}
				return in, out, nil
			}
		}
		coordCh, ch := NewCtlPipe()
		rp := NewRemoteParticipant(coordCh, fmt.Sprintf("machine %d", m))
		rp.AckTimeout = 20 * time.Second
		parts[m] = rp
		wc := WorkerConfig{
			Machine: m, Graph: ng, Mods: mods,
			Config:  Config{WorkersPerMachine: 1, MaxInFlight: 8, Buffer: 4},
			Batches: batches,
			Wire:    wire,
			WAL:     openWAL(t, walDir, m, machines, phases),
		}
		go func(m int) {
			rep, err := ServeParticipant(ch, wc)
			results <- workerResult{m, rep, err}
		}(m)
	}

	rejoins := make(chan RejoinOffer, 1)
	co := &Coordinator{
		Graph:    ngRef,
		Machines: machines,
		Phases:   phases,
		Planner:  script,
		// The drift monitor never triggers: the only mid-run events are
		// the injected failure and its recovery.
		Rebalance:    RebalanceConfig{SkewThreshold: 1e12},
		Participants: parts,
		Rejoins:      rejoins,
		Recovery:     RecoverConfig{Window: 10 * time.Second},
	}
	done := make(chan error, 1)
	go func() {
		_, err := co.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinated run wedged during rollback")
	}
	recs := co.Recoveries()
	if len(recs) != 1 {
		t.Fatalf("recorded %d recoveries, want 1", len(recs))
	}
	if len(recs[0].Machines) != 0 {
		t.Errorf("pure rollback reports rejoined machines %v, want none", recs[0].Machines)
	}
	if recs[0].StableEpoch != 0 || recs[0].Base != 0 {
		t.Errorf("rolled back to epoch %d base %d, want the epoch-0 checkpoint", recs[0].StableEpoch, recs[0].Base)
	}
	for i := 0; i < machines; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("worker %d: %v", r.machine, r.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a worker never returned")
		}
	}

	log := sink.history()
	ref := sinkRef.history()
	if len(log) == 0 {
		t.Fatal("sink recorded nothing")
	}
	if len(log) != len(ref) {
		t.Fatalf("sink saw %d values, oracle %d", len(log), len(ref))
	}
	for i := range log {
		if log[i] != ref[i] {
			t.Fatalf("entry %d: %s vs oracle %s", i, log[i], ref[i])
		}
	}
}
