package distrib

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/graph"
	"repro/internal/netwire"
)

// runOver executes the shared workload under the given network and
// compares sink histories against freshly-built reference sinks.
func runOver(t *testing.T, net Network, machines int, seed uint64, phases int) (Stats, []*recSink) {
	t.Helper()
	ng, mods, sinks := buildWorkload(t, seed)
	st, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: make([][]core.ExtInput, phases), Dist: Config{
		Machines: machines, WorkersPerMachine: 2, MaxInFlight: 8, Buffer: 4,
		Network: net,
	}})
	if err != nil {
		t.Fatalf("machines=%d over %s: %v", machines, net.Name(), err)
	}
	return st, sinks
}

// TestTCPEquivalenceSweep is the acceptance sweep over real sockets:
// random layered DAGs × machine counts × seeds, every run bit-identical
// to the sequential oracle while actually crossing loopback TCP.
func TestTCPEquivalenceSweep(t *testing.T) {
	const phases = 60
	batches := make([][]core.ExtInput, phases)
	for _, seed := range []uint64{1, 99, 2026} {
		ngRef, modsRef, sinksRef := buildWorkload(t, seed)
		if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
			t.Fatal(err)
		}
		for _, machines := range []int{2, 3, 5} {
			net, err := NewTCPNetwork()
			if err != nil {
				t.Fatal(err)
			}
			st, sinks := runOver(t, net, machines, seed, phases)
			net.Close()
			if !sinkLogsEqual(sinksRef, sinks) {
				t.Fatalf("seed=%d machines=%d: TCP run diverged from sequential", seed, machines)
			}
			if st.Transport != "tcp" {
				t.Errorf("stats report transport %q", st.Transport)
			}
			for _, ls := range st.Links {
				if ls.Transport != "tcp" {
					t.Errorf("link %d->%d reports transport %q", ls.From, ls.To, ls.Transport)
				}
				if ls.Frames != phases {
					t.Errorf("link %d->%d carried %d frames, want %d", ls.From, ls.To, ls.Frames, phases)
				}
				if ls.Values > 0 && ls.Bytes == 0 {
					t.Errorf("link %d->%d carried %d values in 0 bytes", ls.From, ls.To, ls.Values)
				}
			}
		}
	}
}

// TestTCPMatchesChannelTransport: the two in-process transports produce
// byte-identical link-level traffic (same frames, same values) and the
// same sink histories on the same plan.
func TestTCPMatchesChannelTransport(t *testing.T) {
	const seed, machines, phases = 7, 3, 50
	stChan, sinksChan := runOver(t, ChannelNetwork{}, machines, seed, phases)
	net, err := NewTCPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	stTCP, sinksTCP := runOver(t, net, machines, seed, phases)
	if !sinkLogsEqual(sinksChan, sinksTCP) {
		t.Fatal("TCP and channel runs diverged")
	}
	if stChan.CrossMessages != stTCP.CrossMessages {
		t.Errorf("cross messages: chan %d, tcp %d", stChan.CrossMessages, stTCP.CrossMessages)
	}
	if len(stChan.Links) != len(stTCP.Links) {
		t.Fatalf("link counts differ: %d vs %d", len(stChan.Links), len(stTCP.Links))
	}
	for i := range stChan.Links {
		a, b := stChan.Links[i], stTCP.Links[i]
		if a.From != b.From || a.To != b.To || a.Frames != b.Frames || a.Values != b.Values {
			t.Errorf("link %d traffic differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestFaultyEquivalence: seeded delay and bounded in-frame reorder must
// NOT change results — cross-machine values of one phase carry no
// intra-phase ordering contract, and serializability has to survive a
// jittery wire. Runs over both inner transports.
func TestFaultyEquivalence(t *testing.T) {
	const seed, phases = 42, 40
	batches := make([][]core.ExtInput, phases)
	ngRef, modsRef, sinksRef := buildWorkload(t, seed)
	if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
		t.Fatal(err)
	}
	for _, inner := range []string{"chan", "tcp"} {
		var base Network
		if inner == "tcp" {
			tn, err := NewTCPNetwork()
			if err != nil {
				t.Fatal(err)
			}
			defer tn.Close()
			base = tn
		}
		net := NewFaultyNetwork(base, FaultPlan{
			Seed:          0xBAD5EED,
			MaxDelay:      200 * time.Microsecond,
			ReorderWindow: 4,
		})
		st, sinks := runOver(t, net, 3, seed, phases)
		if !sinkLogsEqual(sinksRef, sinks) {
			t.Fatalf("faulty+%s run diverged from sequential under delay+reorder", inner)
		}
		if !strings.HasPrefix(st.Transport, "faulty+") {
			t.Errorf("stats report transport %q", st.Transport)
		}
	}
}

// countGoroutines samples the goroutine count after letting shutdown
// settle.
func countGoroutines() int {
	runtime.GC()
	return runtime.NumGoroutine()
}

// waitGoroutinesBelow polls until the goroutine count drops to the
// limit or the deadline passes, returning the final count.
func waitGoroutinesBelow(limit int, deadline time.Duration) int {
	t0 := time.Now()
	for {
		n := countGoroutines()
		if n <= limit || time.Since(t0) > deadline {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultyCrashCascade is the acceptance test for the fault path:
// crash every link at phase k and require (1) the injected error — not
// a derived one — surfaces to the caller, (2) every surviving machine
// aborts cleanly rather than wedging, and (3) no goroutine leaks, over
// both channel and TCP inner transports.
func TestFaultyCrashCascade(t *testing.T) {
	const phases = 60
	for _, inner := range []string{"chan", "tcp"} {
		t.Run(inner, func(t *testing.T) {
			before := countGoroutines()
			var base Network
			var tn *TCPNetwork
			if inner == "tcp" {
				var err error
				tn, err = NewTCPNetwork()
				if err != nil {
					t.Fatal(err)
				}
				base = tn
			}
			net := NewFaultyNetwork(base, FaultPlan{CrashAtPhase: phases / 2})
			ng, mods, _ := buildWorkload(t, 5)
			done := make(chan error, 1)
			go func() {
				_, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: make([][]core.ExtInput, phases), Dist: Config{
					Machines: 4, WorkersPerMachine: 2, MaxInFlight: 4, Buffer: 2,
					Network: net,
				}})
				done <- err
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("crashed run wedged: Run did not return")
			}
			if err == nil {
				t.Fatal("crash at phase k returned no error")
			}
			if !strings.Contains(err.Error(), "injected crash") {
				t.Fatalf("first error is derived, not the injected root cause: %v", err)
			}
			if tn != nil {
				tn.Close()
			}
			if after := waitGoroutinesBelow(before, 10*time.Second); after > before {
				t.Errorf("goroutine leak after crash: %d before, %d after", before, after)
			}
		})
	}
}

// TestFaultySingleLinkCrash: crashing one mid-pipeline link must still
// abort the whole run cleanly — upstream machines of the dead link
// finish or drain, downstream ones cascade.
func TestFaultySingleLinkCrash(t *testing.T) {
	const n, phases = 12, 80
	before := countGoroutines()
	ng, err := graph.Chain(n).Number()
	if err != nil {
		t.Fatal(err)
	}
	mods := make([]core.Module, n)
	mods[0] = core.StepFunc(func(ctx *core.Context) {
		ctx.EmitAll(event.Int(int64(ctx.Phase())))
	})
	for i := 1; i < n; i++ {
		mods[i] = core.StepFunc(func(ctx *core.Context) {
			if v, ok := ctx.FirstIn(); ok {
				ctx.EmitAll(v)
			}
		})
	}
	net := NewFaultyNetwork(nil, FaultPlan{CrashAtPhase: 20, CrashFrom: 1, CrashTo: 2})
	st, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: make([][]core.ExtInput, phases), Dist: Config{
		Machines: 4, WorkersPerMachine: 1, MaxInFlight: 4, Buffer: 2,

		Network: net,
	}})
	if err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("err = %v, want injected crash", err)
	}
	// The machine upstream of the crash keeps its full run; the crashed
	// machine aborts once its egress dies.
	if len(st.PerMachine) != 4 {
		t.Fatalf("stats for %d machines", len(st.PerMachine))
	}
	if got := st.PerMachine[0].PhasesCompleted; got != phases {
		t.Errorf("machine 0 (upstream of crash) completed %d phases, want %d", got, phases)
	}
	if got := st.PerMachine[3].PhasesCompleted; got >= phases {
		t.Errorf("machine 3 (downstream of crash) completed %d phases, want < %d", got, phases)
	}
	if after := waitGoroutinesBelow(before, 10*time.Second); after > before {
		t.Errorf("goroutine leak after single-link crash: %d before, %d after", before, after)
	}
}

// TestRunRejectsNegativeBuffer pins the explicit depth validation the
// former silent clamp replaced.
func TestRunRejectsNegativeBuffer(t *testing.T) {
	ng, _ := graph.Chain(3).Number()
	mods := []core.Module{bridge{}, bridge{}, bridge{}}
	if _, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: nil, Dist: Config{Machines: 2, Buffer: -1}}); err == nil {
		t.Error("negative link buffer accepted")
	}
	if _, err := NewDeployment(ng, mods, Config{Machines: 2, Buffer: -3}); err == nil {
		t.Error("NewDeployment accepted negative buffer")
	}
}

// TestDeploymentTopology pins the Upstream/Downstream metadata
// RunMachine callers (cmd/fuseworker) wire transports from.
func TestDeploymentTopology(t *testing.T) {
	ng, _ := graph.Chain(6).Number()
	mods := make([]core.Module, 6)
	for i := range mods {
		mods[i] = bridge{}
	}
	d, err := NewDeployment(ng, mods, Config{Machines: 3, Planner: Contiguous{}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Machines() != 3 || d.CrossEdges() != 2 {
		t.Fatalf("machines=%d crossEdges=%d", d.Machines(), d.CrossEdges())
	}
	wantUp := [][]int{nil, {0}, {1}}
	wantDown := [][]int{{1}, {2}, nil}
	for m := 0; m < 3; m++ {
		if got := d.Upstream(m); !intsEqual(got, wantUp[m]) {
			t.Errorf("Upstream(%d) = %v, want %v", m, got, wantUp[m])
		}
		if got := d.Downstream(m); !intsEqual(got, wantDown[m]) {
			t.Errorf("Downstream(%d) = %v, want %v", m, got, wantDown[m])
		}
	}
	if d.Buffer() != 8 {
		t.Errorf("default Buffer() = %d, want 8", d.Buffer())
	}
	// Missing transports are rejected, not deadlocked on.
	if _, err := d.RunMachine(1, make([][]core.ExtInput, 1), nil, nil); err == nil {
		t.Error("RunMachine with missing transports accepted")
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunMachineOverWires runs a 3-machine chain as three RunMachine
// calls joined by raw channel transports — the exact shape cmd/
// fuseworker uses with sockets — and checks the sink history against
// the all-in-one Run.
func TestRunMachineOverWires(t *testing.T) {
	const n, phases = 9, 30
	build := func() (*graph.Numbered, []core.Module, *recSink) {
		ng, _ := graph.Chain(n).Number()
		mods := make([]core.Module, n)
		mods[0] = core.StepFunc(func(ctx *core.Context) {
			if ctx.Phase()%3 != 0 {
				ctx.EmitAll(event.Int(int64(ctx.Phase())))
			}
		})
		for i := 1; i < n-1; i++ {
			mods[i] = core.StepFunc(func(ctx *core.Context) {
				if v, ok := ctx.FirstIn(); ok {
					x, _ := v.AsInt()
					ctx.EmitAll(event.Int(x + 1))
				}
			})
		}
		rs := &recSink{}
		mods[n-1] = rs
		return ng, mods, rs
	}
	batches := make([][]core.ExtInput, phases)

	ngRef, modsRef, rsWant := build()
	if _, err := Run(context.Background(), RunConfig{Graph: ngRef, Mods: modsRef, Batches: batches, Dist: Config{Machines: 3, WorkersPerMachine: 1}}); err != nil {
		t.Fatal(err)
	}

	ng, mods, rs := build()
	d, err := NewDeployment(ng, mods, Config{Machines: 3, WorkersPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	runDeploymentInProc(t, d, batches)
	if len(rs.log) != len(rsWant.log) {
		t.Fatalf("sink saw %d values, reference %d", len(rs.log), len(rsWant.log))
	}
	for i := range rs.log {
		if rs.log[i] != rsWant.log[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, rs.log[i], rsWant.log[i])
		}
	}
}

// runDeploymentInProc drives a prepared deployment through the three
// RunMachine calls over channel links, failing the test on any error.
func runDeploymentInProc(t *testing.T, d *Deployment, batches [][]core.ExtInput) {
	t.Helper()
	type key struct{ from, to int }
	links := map[key]Transport{}
	for m := 0; m < d.Machines(); m++ {
		for _, dst := range d.Downstream(m) {
			l, err := NewChannelTransport(m, dst, d.Buffer())
			if err != nil {
				t.Fatal(err)
			}
			links[key{m, dst}] = l
		}
	}
	errs := make(chan error, d.Machines())
	for m := 0; m < d.Machines(); m++ {
		in := map[int]Transport{}
		for _, up := range d.Upstream(m) {
			in[up] = links[key{up, m}]
		}
		out := map[int]Transport{}
		for _, dst := range d.Downstream(m) {
			out[dst] = links[key{m, dst}]
		}
		m := m
		go func() {
			_, err := d.RunMachine(m, batches, in, out)
			errs <- err
		}()
	}
	for m := 0; m < d.Machines(); m++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireErrorSurfacesRootCause: a corrupted wire (here: an oversized
// frame length) must surface netwire's precise error through
// Transport.Recv, not be flattened into a generic ErrLinkClosed.
func TestWireErrorSurfacesRootCause(t *testing.T) {
	ln, err := netwire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *netwire.RecvLink, 1)
	go func() {
		rl, err := ln.Accept()
		if err == nil {
			accepted <- rl
		}
	}()

	// A hostile peer: correct handshake, then a length prefix far past
	// the frame bound, handcrafted from the documented wire format.
	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hs := []byte{'F', 'W', 'R', '1', 5, 0}    // wire protocol version 5, data channel
	hs = binary.BigEndian.AppendUint32(hs, 0) // from
	hs = binary.BigEndian.AppendUint32(hs, 1) // to
	hs = binary.BigEndian.AppendUint32(hs, 4) // window
	if _, err := conn.Write(hs); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, 1)
	if _, err := io.ReadFull(conn, ack); err != nil {
		t.Fatal(err)
	}
	tr := NewRecvTransport(<-accepted)
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	_, err = tr.Recv()
	if err == nil || errors.Is(err, ErrLinkClosed) {
		t.Fatalf("corrupted wire returned %v, want the oversized-length root cause", err)
	}
	if !strings.Contains(err.Error(), "exceeds max") {
		t.Errorf("error %q does not carry the netwire root cause", err)
	}
}
