package distrib

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/netwire"
)

// TCPNetwork carries every link of one in-process partitioned run over
// real loopback TCP sockets: each Link dials the network's own
// listener, handshakes the (from, to) machine indices, and exchanges
// netwire frames under a credit window equal to the configured buffer
// depth — so the flow control is byte-for-byte the semantics of the
// bounded in-process channel it replaces, just paid for in syscalls
// and serialization. The equivalence sweeps pass bit-identically over
// it; experiment E13 prices the difference.
//
// A TCPNetwork is single-use (one Run) and caller-owned: create, pass
// as Config.Network, and Close after Run returns. For genuinely
// multi-process deployments, cmd/fuseworker wires netwire links
// directly via NewSendTransport/NewRecvTransport.
type TCPNetwork struct {
	ln *netwire.Listener

	// Unbatched disables data-frame coalescing on every send link the
	// network creates (netwire.SendLink.Unbatched). Set it before
	// wiring a run; experiment E16 uses it to price batching.
	Unbatched bool

	mu       sync.Mutex
	pending  map[[2]int]chan *netwire.RecvLink
	links    []*tcpTransport
	closed   bool
	wireTap  func(in bool, from, to int, f netwire.WireFrame, wireBytes int)
	flushTap func(from, to int, frames, wireBytes int)

	accepting sync.WaitGroup
}

// SetWireTap implements WireTapper: fn observes every netwire frame on
// links created after the call, on both the egress and ingress side,
// with its encoded size. Install it before wiring a run.
func (n *TCPNetwork) SetWireTap(fn func(in bool, from, to int, f netwire.WireFrame, wireBytes int)) {
	n.mu.Lock()
	n.wireTap = fn
	n.mu.Unlock()
}

// SetFlushTap implements FlushTapper: fn observes every coalesced
// socket write on links created after the call, with the number of
// frames it carried and the bytes written. Install it before wiring.
func (n *TCPNetwork) SetFlushTap(fn func(from, to int, frames, wireBytes int)) {
	n.mu.Lock()
	n.flushTap = fn
	n.mu.Unlock()
}

// NewTCPNetwork opens a loopback listener and starts matching inbound
// handshakes to Link calls.
func NewTCPNetwork() (*TCPNetwork, error) {
	ln, err := netwire.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &TCPNetwork{ln: ln, pending: make(map[[2]int]chan *netwire.RecvLink)}
	n.accepting.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the loopback address the network listens on.
func (n *TCPNetwork) Addr() string { return n.ln.Addr() }

// Name implements Network.
func (n *TCPNetwork) Name() string { return "tcp" }

func (n *TCPNetwork) acceptLoop() {
	defer n.accepting.Done()
	for {
		rl, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		hs := rl.Handshake()
		n.mu.Lock()
		ch := n.pending[[2]int{hs.From, hs.To}]
		if ch == nil {
			// A connection for a link nobody registered: refuse it
			// rather than hold state for a peer that cannot exist.
			n.mu.Unlock()
			rl.Close()
			continue
		}
		delete(n.pending, [2]int{hs.From, hs.To})
		n.mu.Unlock()
		ch <- rl
	}
}

// Link implements Network: it registers the (from, to) pair, dials its
// own listener, and pairs the dialed sender with the accepted receiver
// into one in-process Transport.
func (n *TCPNetwork) Link(from, to, depth int) (Transport, error) {
	if depth < MinLinkDepth {
		return nil, fmt.Errorf("distrib: tcp link %d->%d: depth %d < minimum %d", from, to, depth, MinLinkDepth)
	}
	ch := make(chan *netwire.RecvLink, 1)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("distrib: tcp network closed")
	}
	if _, dup := n.pending[[2]int{from, to}]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("distrib: duplicate tcp link %d->%d", from, to)
	}
	n.pending[[2]int{from, to}] = ch
	n.mu.Unlock()

	send, err := netwire.Dial(n.ln.Addr(), from, to, depth)
	if err != nil {
		n.mu.Lock()
		delete(n.pending, [2]int{from, to})
		n.mu.Unlock()
		return nil, err
	}
	var recv *netwire.RecvLink
	select {
	case recv = <-ch:
	case <-time.After(10 * time.Second):
		send.Abort()
		return nil, fmt.Errorf("distrib: tcp link %d->%d: handshake not matched", from, to)
	}
	tr := &tcpTransport{from: from, to: to, send: send, recv: recv}
	n.mu.Lock()
	send.Unbatched = n.Unbatched
	if fn := n.wireTap; fn != nil {
		send.Tap = func(f netwire.WireFrame, wire int) { fn(false, from, to, f, wire) }
		recv.Tap = func(f netwire.WireFrame, wire int) { fn(true, from, to, f, wire) }
	}
	if fn := n.flushTap; fn != nil {
		send.FlushTap = func(frames, wire int) { fn(from, to, frames, wire) }
	}
	n.links = append(n.links, tr)
	n.mu.Unlock()
	return tr, nil
}

// Close implements Network: it stops the accept loop and force-closes
// every link still open, so an aborted run cannot leak connections or
// reader goroutines.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	links := n.links
	n.mu.Unlock()
	n.ln.Close()
	for _, tr := range links {
		tr.send.Abort()
		tr.recv.Close()
	}
	n.accepting.Wait()
	return nil
}

// tcpTransport pairs the two endpoints of one loopback link into the
// Transport the in-process runtime wires between machines.
type tcpTransport struct {
	from, to int
	send     *netwire.SendLink
	recv     *netwire.RecvLink
}

func (t *tcpTransport) Send(f Frame) error { return sendWire(t.send, f) }

// sendWire pushes a runtime frame down a netwire send link. Encoding
// happens synchronously inside Send, so a data frame's input slice is
// dead once the call returns and goes back to the pool — the zero-alloc
// half of the wire path's slice recycling (the other half is the
// receiver handing decoded batches to ingress, which recycles them
// after the engine copies the inputs out).
func sendWire(s *netwire.SendLink, f Frame) error {
	err := s.Send(wireFrame(f))
	if err == nil && f.Kind == FrameData {
		netwire.RecycleInputs(f.Inputs)
	}
	return err
}

func (t *tcpTransport) Recv() (Frame, error) {
	return recvWire(t.recv)
}

// wireFrame converts a runtime frame to its netwire form; the kinds
// share one tag namespace, so conversion is field-for-field.
func wireFrame(f Frame) netwire.WireFrame {
	return netwire.WireFrame{
		Kind: uint8(f.Kind), Epoch: f.Epoch, Phase: f.Phase,
		Inputs: f.Inputs,
	}
}

func (t *tcpTransport) Close() error { return t.send.Close() }

// Ready implements Flusher.
func (t *tcpTransport) Ready() bool { return t.send.Ready() }

// Flush implements Flusher.
func (t *tcpTransport) Flush() error { return t.send.Flush() }

func (t *tcpTransport) DrainDiscard() { drainWire(t.recv) }

// recvWire adapts a netwire receiving end to Transport.Recv: a clean
// end of stream is ErrLinkClosed, an unclean one surfaces the recorded
// wire-level root cause (oversized frame, truncation, codec error).
func recvWire(r *netwire.RecvLink) (Frame, error) {
	f, ok := r.Recv()
	if !ok {
		if err := r.Err(); err != nil {
			return Frame{}, err
		}
		return Frame{}, ErrLinkClosed
	}
	return Frame{
		Kind: FrameKind(f.Kind), Epoch: f.Epoch, Phase: f.Phase,
		Inputs: f.Inputs,
	}, nil
}

// drainWire consumes a netwire receiving end until it closes.
func drainWire(r *netwire.RecvLink) {
	for {
		if _, ok := r.Recv(); !ok {
			return
		}
	}
}

func (t *tcpTransport) Stats() LinkStats {
	ws := t.send.Stats()
	return LinkStats{
		From:           t.from,
		To:             t.to,
		Transport:      "tcp",
		Frames:         ws.Frames,
		Values:         ws.Values,
		Bytes:          ws.Bytes,
		SendBlocks:     ws.Blocks,
		Blocked:        ws.Blocked,
		Flushes:        ws.Flushes,
		FramesPerFlush: ws.FramesPerFlush,
	}
}

// NewSendTransport wraps the sending end of a dialed netwire link as a
// Transport for RunMachine's `out` map. Only Send, Close and Stats are
// usable: a worker process owns exactly one end of each wire, so Recv
// and DrainDiscard have nothing to read from and panic if called.
func NewSendTransport(from, to int, s *netwire.SendLink) Transport {
	return &sendOnly{from: from, to: to, s: s}
}

type sendOnly struct {
	from, to int
	s        *netwire.SendLink
}

func (t *sendOnly) Send(f Frame) error { return sendWire(t.s, f) }
func (t *sendOnly) Ready() bool        { return t.s.Ready() }
func (t *sendOnly) Flush() error       { return t.s.Flush() }
func (t *sendOnly) Close() error       { return t.s.Close() }
func (t *sendOnly) Recv() (Frame, error) {
	panic("distrib: Recv on the sending end of a wire link")
}
func (t *sendOnly) DrainDiscard() {
	panic("distrib: DrainDiscard on the sending end of a wire link")
}
func (t *sendOnly) Stats() LinkStats {
	ws := t.s.Stats()
	return LinkStats{
		From: t.from, To: t.to, Transport: "tcp",
		Frames: ws.Frames, Values: ws.Values, Bytes: ws.Bytes,
		SendBlocks: ws.Blocks, Blocked: ws.Blocked,
		Flushes: ws.Flushes, FramesPerFlush: ws.FramesPerFlush,
	}
}

// NewRecvTransport wraps the receiving end of an accepted netwire link
// as a Transport for RunMachine's `in` map. Only Recv, DrainDiscard,
// Close and Stats are usable; Send panics.
func NewRecvTransport(r *netwire.RecvLink) Transport {
	return &recvOnly{r: r}
}

type recvOnly struct {
	r *netwire.RecvLink
}

func (t *recvOnly) Send(Frame) error {
	panic("distrib: Send on the receiving end of a wire link")
}
func (t *recvOnly) Close() error         { return t.r.Close() }
func (t *recvOnly) Recv() (Frame, error) { return recvWire(t.r) }
func (t *recvOnly) DrainDiscard()        { drainWire(t.r) }
func (t *recvOnly) Stats() LinkStats {
	hs := t.r.Handshake()
	ws := t.r.Stats()
	return LinkStats{
		From: hs.From, To: hs.To, Transport: "tcp",
		Frames: ws.Frames, Values: ws.Values, Bytes: ws.Bytes,
	}
}

// interface conformance
var (
	_ Network   = (*TCPNetwork)(nil)
	_ Transport = (*tcpTransport)(nil)
	_ Transport = (*sendOnly)(nil)
	_ Transport = (*recvOnly)(nil)
	_ Network   = ChannelNetwork{}
	_ Transport = (*ChannelTransport)(nil)
)
