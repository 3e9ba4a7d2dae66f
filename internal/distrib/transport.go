package distrib

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netwire"
)

// ErrLinkClosed is the clean end-of-stream: the sender closed the link
// after its final frame. Any other Recv error means the wire itself
// failed (corruption, oversized frame, broken socket) and carries the
// root cause.
var ErrLinkClosed = errors.New("link closed")

// FrameKind distinguishes the traffic a link carries. Data frames are
// the steady state; barrier frames end an epoch under dynamic
// repartitioning (DESIGN.md §8). The values mirror
// internal/netwire's wire tags one for one, so wire transports encode
// the kind without translation.
type FrameKind uint8

// Frame kinds. See the netwire constants of the same names for the
// wire-level semantics.
const (
	// FrameData carries one phase's cross-machine values.
	FrameData FrameKind = netwire.FrameData
	// FrameBarrier announces the sender quiesced its epoch after Phase.
	FrameBarrier FrameKind = netwire.FrameBarrier
)

// Frame is one message on a link. A data frame is one phase's worth of
// traffic: the values every portal on the sending machine captured for
// that phase, already addressed to the bridge vertices of the receiving
// machine. A data frame is sent for every (link, phase) pair even when
// empty — the receiver must learn that the upstream phase finished with
// nothing to say, or the "all inputs known at phase start" invariant
// (and with it cross-machine serializability) would be lost.
//
// A barrier frame (Kind == FrameBarrier) follows the sender's final
// data frame of an epoch: Phase names the barrier — the last phase the
// sender ran — and the receiver, once every upstream has sent the same
// barrier, quiesces at the same phase and floods the barrier onward.
// Migrating state never rides a data link: it crosses the control
// plane between epochs (DESIGN.md §9).
//
// Epoch tags every frame with the deployment epoch that produced it
// (0 until the first rebalance); receivers reject mismatches, so a
// frame that somehow survives an epoch switch is an error, never a
// silently misapplied input.
type Frame struct {
	Kind   FrameKind
	Epoch  int
	Phase  int
	Inputs []core.ExtInput
}

// MinLinkDepth is the smallest legal link buffer depth. A zero-depth
// link would re-serialize the pipeline into the lockstep handoff this
// layer exists to avoid, so every Network implementation rejects
// depth < MinLinkDepth instead of silently clamping (the runtime
// validates Config.Buffer before any link is built).
const MinLinkDepth = 1

// Transport is a one-way, phase-ordered frame pipe between two
// machines. Exactly one goroutine sends (the source machine's egress)
// and one receives (the destination machine's ingress); the
// implementations are not required to support concurrent Sends or
// concurrent Recvs.
//
// Three implementations ship with the runtime: ChannelTransport (an
// in-process bounded channel, the zero-dependency default), the TCP
// transport behind TCPNetwork (real sockets over loopback with a
// credit window equal to the configured depth), and FaultyNetwork's
// wrapper (seeded delay, bounded in-frame reorder, crash at a chosen
// phase). The distrib equivalence sweeps pass bit-identically under
// all of them.
type Transport interface {
	// Send delivers a frame, blocking while the receiver is a full
	// window behind. A non-nil error means the link is dead (the wire
	// failed or a fault was injected): no further frames can be sent
	// and the sender should abort its run.
	Send(f Frame) error
	// Recv returns the next frame, blocking until one arrives. After
	// the sender has closed the link and every in-flight frame has been
	// delivered it returns ErrLinkClosed; any other error is the
	// wire-level root cause (truncated frame, oversized length, broken
	// socket) and must be surfaced, not summarized.
	Recv() (Frame, error)
	// Close marks the sending side done; frames already sent remain
	// receivable. Close is idempotent.
	Close() error
	// DrainDiscard consumes and discards frames until the link closes.
	// A machine that aborts mid-run drains its inbound links so
	// upstream senders can never wedge against a full window nobody is
	// reading.
	DrainDiscard()
	// Stats snapshots the link counters.
	Stats() LinkStats
}

// Flusher is implemented by transports whose Send batches data frames
// into a write buffer instead of hitting the wire immediately
// (tcpTransport, unless Unbatched). The egress loop must flush every
// link of a machine before blocking — on an empty phase queue, or on
// another link's exhausted credit window — or batched frames starve
// their receiver into a cross-link deadlock: machine B can sit on the
// very frame machine C needs to free the window machine A is blocked
// on. Transports without a write buffer simply don't implement it.
type Flusher interface {
	// Ready reports whether the next Send can proceed without
	// blocking on the credit window.
	Ready() bool
	// Flush writes any batched frames to the wire now.
	Flush() error
}

// flushLinks flushes every batching link in out; the first error is
// returned (a dead wire — the following Send will fail the same way).
func flushLinks(out map[int]Transport) error {
	for _, l := range out {
		if fl, ok := l.(Flusher); ok {
			if err := fl.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Network builds the Transport for every cross-machine link of one
// partitioned run. A Network value is single-use: Link is called once
// per connected (from, to) machine pair during wiring, and Close
// releases whatever the implementation shares between links (a TCP
// listener, for instance). Run closes the Network it created itself
// (the default ChannelNetwork); a caller-supplied Config.Network is
// closed by the caller.
type Network interface {
	// Name labels the transport in stats and reports.
	Name() string
	// Link creates the transport carrying frames from machine `from` to
	// machine `to` with the given buffer depth (≥ MinLinkDepth; the
	// runtime has already validated the configured depth).
	Link(from, to, depth int) (Transport, error)
	// Close releases shared resources and force-closes any link still
	// open. Safe to call more than once.
	Close() error
}

// LinkStats is a snapshot of one link's counters.
//
// Counters are maintained on the sending side. Every transport is built
// with a buffer depth of at least MinLinkDepth; SendBlocks/Blocked
// account the time spent against that window.
type LinkStats struct {
	// From and To are the machine indices the link connects.
	From, To int
	// Transport names the implementation carrying the link.
	Transport string
	// Frames is the number of frames sent (one per phase).
	Frames int64
	// Values is the number of cross-machine values carried.
	Values int64
	// Bytes is the encoded payload volume for wire transports (zero for
	// in-process channels, which move pointers, not bytes).
	Bytes int64
	// SendBlocks counts sends that found the window full.
	SendBlocks int64
	// Blocked is the cumulative time sends spent waiting for window
	// space — the backpressure the downstream machine exerted.
	Blocked time.Duration
	// Flushes is the number of coalesced socket writes for batching
	// wire transports (zero for channels and unbatched links).
	Flushes int64
	// FramesPerFlush is a histogram of frames coalesced per flush,
	// bucketed 1, 2, 3-4, 5-8, 9-16, 17+.
	FramesPerFlush [6]int64
}

// ChannelNetwork is the zero-dependency default Network: every link is
// a ChannelTransport, i.e. a bounded in-process channel. It carries no
// shared state, so the zero value is ready to use.
type ChannelNetwork struct{}

// Name implements Network.
func (ChannelNetwork) Name() string { return "chan" }

// Link implements Network.
func (ChannelNetwork) Link(from, to, depth int) (Transport, error) {
	return NewChannelTransport(from, to, depth)
}

// Close implements Network; channel links share nothing.
func (ChannelNetwork) Close() error { return nil }

// ChannelTransport is a bounded, backpressured in-process connection
// between two machines — the honest stand-in for a network socket
// (DESIGN.md §2, §7). Send blocks when the receiver has fallen more
// than the buffer depth behind, which is exactly the flow control a
// bounded TCP window would provide; blocked time is accounted so
// experiments can see where a pipeline stalls.
type ChannelTransport struct {
	from, to int
	ch       chan Frame
	closed   sync.Once

	frames  atomic.Int64
	values  atomic.Int64
	blocks  atomic.Int64
	blocked atomic.Int64 // ns spent in blocked sends
}

// NewChannelTransport returns an in-process link from machine `from`
// to machine `to` with the given buffer depth. Depth below
// MinLinkDepth is an error, not a clamp: callers own their flow
// control and must ask for a real window.
func NewChannelTransport(from, to, depth int) (*ChannelTransport, error) {
	if depth < MinLinkDepth {
		return nil, fmt.Errorf("distrib: link %d->%d: depth %d < minimum %d", from, to, depth, MinLinkDepth)
	}
	return &ChannelTransport{from: from, to: to, ch: make(chan Frame, depth)}, nil
}

// Send implements Transport. The fast path is a plain non-blocking
// send; only the slow path pays for timestamps, so an unclogged
// pipeline measures no backpressure.
func (l *ChannelTransport) Send(f Frame) error {
	select {
	case l.ch <- f:
	default:
		t0 := time.Now()
		l.ch <- f
		l.blocked.Add(int64(time.Since(t0)))
		l.blocks.Add(1)
	}
	l.frames.Add(1)
	l.values.Add(int64(len(f.Inputs)))
	return nil
}

// Recv implements Transport. In-process channels cannot corrupt, so
// the only error is the clean ErrLinkClosed.
func (l *ChannelTransport) Recv() (Frame, error) {
	f, ok := <-l.ch
	if !ok {
		return Frame{}, ErrLinkClosed
	}
	return f, nil
}

// Close implements Transport. Buffered frames remain receivable.
func (l *ChannelTransport) Close() error {
	l.closed.Do(func() { close(l.ch) })
	return nil
}

// DrainDiscard implements Transport.
func (l *ChannelTransport) DrainDiscard() {
	for range l.ch {
	}
}

// Stats implements Transport.
func (l *ChannelTransport) Stats() LinkStats {
	return LinkStats{
		From:       l.from,
		To:         l.to,
		Transport:  "chan",
		Frames:     l.frames.Load(),
		Values:     l.values.Load(),
		SendBlocks: l.blocks.Load(),
		Blocked:    time.Duration(l.blocked.Load()),
	}
}
