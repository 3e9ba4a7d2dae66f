package distrib

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/graph"
)

// mustLink builds a ChannelTransport or fails the test.
func mustLink(t *testing.T, from, to, depth int) *ChannelTransport {
	t.Helper()
	l, err := NewChannelTransport(from, to, depth)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLinkFIFO(t *testing.T) {
	l := mustLink(t, 0, 1, 4)
	go func() {
		for p := 1; p <= 100; p++ {
			l.Send(Frame{Phase: p})
		}
		l.Close()
	}()
	for p := 1; p <= 100; p++ {
		f, err := l.Recv()
		if err != nil || f.Phase != p {
			t.Fatalf("recv %d: got (%+v, %v)", p, f, err)
		}
	}
	if _, err := l.Recv(); err != ErrLinkClosed {
		t.Errorf("recv on closed drained link returned %v, want ErrLinkClosed", err)
	}
	st := l.Stats()
	if st.Frames != 100 || st.From != 0 || st.To != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkCloseDrainsBuffered(t *testing.T) {
	l := mustLink(t, 2, 3, 8)
	l.Send(Frame{Phase: 1, Inputs: []core.ExtInput{{Vertex: 1, Val: event.Int(9)}}})
	l.Send(Frame{Phase: 2})
	l.Close()
	f, err := l.Recv()
	if err != nil || f.Phase != 1 || len(f.Inputs) != 1 {
		t.Fatalf("first frame = (%+v, %v)", f, err)
	}
	if f, err := l.Recv(); err != nil || f.Phase != 2 {
		t.Fatalf("second frame = (%+v, %v)", f, err)
	}
	if _, err := l.Recv(); err != ErrLinkClosed {
		t.Errorf("third recv returned %v, want ErrLinkClosed", err)
	}
	if st := l.Stats(); st.Values != 1 {
		t.Errorf("Values = %d, want 1", st.Values)
	}
}

func TestLinkMinimumDepth(t *testing.T) {
	// depth < MinLinkDepth is rejected, not clamped: a zero-depth link
	// would re-serialize the pipeline into lockstep handoff, and the
	// former silent clamp let callers depend on that accident.
	for _, depth := range []int{0, -1, -8} {
		if _, err := NewChannelTransport(0, 1, depth); err == nil {
			t.Errorf("NewChannelTransport accepted depth %d, want error", depth)
		}
	}
	if _, err := NewChannelTransport(0, 1, MinLinkDepth); err != nil {
		t.Errorf("NewChannelTransport rejected the documented minimum depth %d: %v", MinLinkDepth, err)
	}
}

func TestLinkBackpressureAccounted(t *testing.T) {
	// The scenario is inherently timing-based (the sender must reach the
	// full buffer before the receiver drains it), so retry rather than
	// assume the sender always wins a sleep race on a loaded runner:
	// one observed blocked send proves the accounting.
	for attempt := 0; attempt < 20; attempt++ {
		l := mustLink(t, 0, 1, 1)
		l.Send(Frame{Phase: 1}) // fills the buffer
		go func() {
			time.Sleep(5 * time.Millisecond)
			l.Recv()
			l.Recv()
		}()
		l.Send(Frame{Phase: 2}) // blocks unless the receiver drained early
		st := l.Stats()
		if st.SendBlocks == 1 {
			if st.Blocked <= 0 {
				t.Errorf("SendBlocks = 1 but Blocked = %v, want > 0", st.Blocked)
			}
			return
		}
	}
	t.Fatal("never observed a blocked send in 20 attempts")
}

// TestLinkDrainDiscardUnblocksSender: a failed machine abandons its
// inbound link; the upstream sender, mid-blocked-send, must complete
// and close without deadlock.
func TestLinkDrainDiscardUnblocksSender(t *testing.T) {
	l := mustLink(t, 0, 1, 1)
	done := make(chan struct{})
	go func() {
		for p := 1; p <= 1000; p++ {
			l.Send(Frame{Phase: p})
		}
		l.Close()
		close(done)
	}()
	go l.DrainDiscard()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sender wedged against an abandoned link")
	}
}

// TestLinkChainStress hammers a pipeline of links with jittered
// relayers under the race detector (mirrors the sharded-queue stress
// style): every frame must arrive exactly once, in phase order, at the
// tail.
func TestLinkChainStress(t *testing.T) {
	const stages, frames = 5, 2000
	links := make([]*ChannelTransport, stages)
	for i := range links {
		links[i] = mustLink(t, i, i+1, 2)
	}
	var wg sync.WaitGroup
	// head producer
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := 1; p <= frames; p++ {
			links[0].Send(Frame{Phase: p, Inputs: []core.ExtInput{{Vertex: 1, Val: event.Int(int64(p))}}})
		}
		links[0].Close()
	}()
	// jittered relayers
	for i := 1; i < stages; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(i), 0xfeed))
			for {
				f, err := links[i-1].Recv()
				if err != nil {
					links[i].Close()
					return
				}
				if rng.IntN(64) == 0 {
					time.Sleep(time.Microsecond)
				}
				links[i].Send(f)
			}
		}(i)
	}
	want := 1
	for {
		f, err := links[stages-1].Recv()
		if err != nil {
			break
		}
		if f.Phase != want {
			t.Fatalf("tail got phase %d, want %d", f.Phase, want)
		}
		want++
	}
	if want != frames+1 {
		t.Fatalf("tail saw %d frames, want %d", want-1, frames)
	}
	wg.Wait()
	for i, l := range links {
		if st := l.Stats(); st.Frames != frames || st.Values != frames {
			t.Errorf("link %d stats = %+v", i, st)
		}
	}
}

// TestPartitionedRaceStress runs the full multi-engine runtime hot —
// many machines, tiny link buffers, sparse emissions — under -race,
// checking the sink totals against a deterministic recomputation.
func TestPartitionedRaceStress(t *testing.T) {
	const n, phases = 24, 120
	ng, err := graph.Chain(n).Number()
	if err != nil {
		t.Fatal(err)
	}
	mods := make([]core.Module, n)
	mods[0] = core.StepFunc(func(ctx *core.Context) {
		if ctx.Phase()%4 != 0 {
			ctx.EmitAll(event.Int(int64(ctx.Phase())))
		}
	})
	for i := 1; i < n-1; i++ {
		mods[i] = core.StepFunc(func(ctx *core.Context) {
			if v, ok := ctx.FirstIn(); ok {
				x, _ := v.AsInt()
				ctx.EmitAll(event.Int(x * 2 % 1000003))
			}
		})
	}
	var mu sync.Mutex
	var got []int64
	mods[n-1] = core.StepFunc(func(ctx *core.Context) {
		if v, ok := ctx.FirstIn(); ok {
			x, _ := v.AsInt()
			mu.Lock()
			got = append(got, x)
			mu.Unlock()
		}
	})
	st, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: make([][]core.ExtInput, phases), Dist: Config{
		Machines: 8, WorkersPerMachine: 2, MaxInFlight: 4, Buffer: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for p := 1; p <= phases; p++ {
		if p%4 == 0 {
			continue
		}
		x := int64(p)
		for i := 1; i < n-1; i++ {
			x = x * 2 % 1000003
		}
		want = append(want, x)
	}
	if len(got) != len(want) {
		t.Fatalf("sink saw %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if st.CrossEdges != 7 {
		t.Errorf("8-machine chain cut %d edges, want 7", st.CrossEdges)
	}
	for _, ls := range st.Links {
		if ls.Frames != phases {
			t.Errorf("link %d->%d: %d frames, want %d", ls.From, ls.To, ls.Frames, phases)
		}
	}
}
