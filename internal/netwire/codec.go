// Package netwire is the wire layer under distrib's TCP transport: a
// compact binary codec for event values, external inputs and per-phase
// frames, length-prefixed framing with strict bounds checking, and the
// per-link handshake + credit-window protocol that gives a real socket
// the same bounded-buffer semantics as an in-process channel
// (DESIGN.md §7).
//
// The codec is deliberately tiny and self-contained — varints and
// little-endian float bits, no reflection, no external schema — so the
// serialized form is stable, fuzzable and cheap: encoding a frame
// reuses the caller's scratch buffer and allocates nothing in steady
// state.
package netwire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/event"
)

// DefaultMaxFrame is the largest encoded frame payload a link accepts
// unless configured otherwise: past this, a length prefix is treated as
// corruption (or abuse), not data. 16 MiB fits ~2M float64 vector
// elements per phase per link — far beyond any workload in the repo.
const DefaultMaxFrame = 16 << 20

// value kind tags on the wire. These deliberately mirror event.Kind but
// are a separate namespace: the wire format is frozen by round-trip and
// fuzz tests, while event.Kind is free to evolve internally.
const (
	wireNone   = 0
	wireBool   = 1
	wireInt    = 2
	wireFloat  = 3
	wireString = 4
	wireVector = 5
)

// AppendValue appends the wire encoding of v to buf and returns the
// extended slice. All five payload kinds round-trip exactly, including
// NaN floats, empty strings and empty (but non-nil) vectors.
func AppendValue(buf []byte, v event.Value) []byte {
	switch v.Kind() {
	case event.KindNone:
		return append(buf, wireNone)
	case event.KindBool:
		b, _ := v.AsBool()
		if b {
			return append(buf, wireBool, 1)
		}
		return append(buf, wireBool, 0)
	case event.KindInt:
		i, _ := v.AsInt()
		buf = append(buf, wireInt)
		return binary.AppendVarint(buf, i)
	case event.KindFloat:
		f, _ := v.AsFloat()
		buf = append(buf, wireFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	case event.KindString:
		s, _ := v.AsString()
		buf = append(buf, wireString)
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	case event.KindVector:
		vec, _ := v.AsVector()
		buf = append(buf, wireVector)
		buf = binary.AppendUvarint(buf, uint64(len(vec)))
		for _, f := range vec {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		return buf
	default:
		panic(fmt.Sprintf("netwire: unencodable value kind %v", v.Kind()))
	}
}

// ReadValue decodes one value from the front of buf, returning the
// value and the remaining bytes. Truncated or unknown-kind input is an
// error, never a partial value.
func ReadValue(buf []byte) (event.Value, []byte, error) {
	if len(buf) == 0 {
		return event.Value{}, nil, fmt.Errorf("netwire: truncated value: missing kind")
	}
	kind, rest := buf[0], buf[1:]
	switch kind {
	case wireNone:
		return event.None(), rest, nil
	case wireBool:
		if len(rest) < 1 {
			return event.Value{}, nil, fmt.Errorf("netwire: truncated bool")
		}
		return event.Bool(rest[0] != 0), rest[1:], nil
	case wireInt:
		i, n := binary.Varint(rest)
		if n <= 0 {
			return event.Value{}, nil, fmt.Errorf("netwire: truncated int varint")
		}
		return event.Int(i), rest[n:], nil
	case wireFloat:
		if len(rest) < 8 {
			return event.Value{}, nil, fmt.Errorf("netwire: truncated float")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		return event.Float(f), rest[8:], nil
	case wireString:
		n, used := binary.Uvarint(rest)
		if used <= 0 {
			return event.Value{}, nil, fmt.Errorf("netwire: truncated string length")
		}
		rest = rest[used:]
		if uint64(len(rest)) < n {
			return event.Value{}, nil, fmt.Errorf("netwire: truncated string: want %d bytes, have %d", n, len(rest))
		}
		return event.String(string(rest[:n])), rest[n:], nil
	case wireVector:
		n, used := binary.Uvarint(rest)
		if used <= 0 {
			return event.Value{}, nil, fmt.Errorf("netwire: truncated vector length")
		}
		rest = rest[used:]
		if uint64(len(rest)) < n*8 || n > uint64(len(rest)) {
			return event.Value{}, nil, fmt.Errorf("netwire: truncated vector: want %d elements, have %d bytes", n, len(rest))
		}
		vec := make([]float64, n)
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
		}
		return event.Vector(vec), rest[n*8:], nil
	default:
		return event.Value{}, nil, fmt.Errorf("netwire: unknown value kind %d", kind)
	}
}

// Frame kinds on the wire. Data frames carry one phase's external
// inputs; every other kind is control plane. FrameBarrier travels on
// data links during an epoch switch (DESIGN.md §8); FrameSnapshot
// and kinds FramePoll onward travel only on control channels — the
// coordinator/participant protocol that rebalances a flock mid-run
// (DESIGN.md §9).
const (
	// FrameData is a per-phase data frame: Phase plus Inputs.
	FrameData = 0
	// FrameBarrier is an epoch-quiesce announcement: Phase names the
	// barrier (the last phase of the closing epoch); no payload. On a
	// control channel it is the coordinator's quiesce command: the
	// participant's head machines must stop after Phase. Sent between
	// an epoch's FramePlan and its state delivery, it is that epoch's
	// barrier, in place before any machine runs.
	FrameBarrier = 1
	// FrameSnapshot is a state-handoff frame: Phase names the barrier
	// it follows and Snaps carries the migrating vertices' state. On a
	// control channel it flows both ways: participants ship the state
	// of vertices leaving them to the coordinator, and the coordinator
	// delivers the state of vertices arriving (an empty snapshot doubles
	// as the "start the epoch" release).
	FrameSnapshot = 2
	// FramePoll asks a participant for progress (coordinator →
	// participant; no payload beyond the epoch tag).
	FramePoll = 3
	// FrameProgress answers a poll or a pause: Phase is the newest
	// phase the participant's head machines opened, Done reports its
	// machines finished, Times carries measured per-vertex Step time.
	FrameProgress = 4
	// FramePause asks a participant to stop its head machines opening
	// phases (heads park at their next gate) and answer with a
	// FrameProgress: a consistent snapshot of how far they had run.
	FramePause = 5
	// FrameQuiesced is a participant's unsolicited end-of-epoch report:
	// Phase is the barrier it drained to (0 = ran to completion) and
	// Times the epoch's measured per-vertex Step time.
	FrameQuiesced = 6
	// FramePlan announces the next epoch's partition: Epoch and Phase
	// (the base the epoch resumes after) position it, Starts carries
	// the per-machine start indices.
	FramePlan = 7
	// FrameFinish releases a participant: the run is over, no further
	// epochs follow.
	FrameFinish = 8
	// FrameAbort tears the control plane down: Msg carries the
	// root-cause description for the peer's error report.
	FrameAbort = 9
	// FrameWait asks a participant to announce — with a FrameStarted,
	// whenever the condition lands — that its head machines opened
	// phase Phase (coordinator → participant). The blocking wait runs
	// participant-side, so the deterministic ForceEvery trigger needs
	// no polling over the wire.
	FrameWait = 10
	// FrameStarted answers a FrameWait: Phase is the newest phase the
	// heads opened; Done reports they finished without reaching the
	// awaited target.
	FrameStarted = 11
	// FrameRejoin is the recovery identity frame (protocol v4). A
	// restarted worker sends it unsolicited after its control handshake,
	// and every worker answers FrameReset/FrameRestore with one: Epoch
	// and Phase name the checkpoint it describes (epoch and base phase),
	// Starts its partition, Done whether a checkpoint exists at all. An
	// empty Starts is legal here — a rejoiner with a fresh WAL has no
	// partition to report.
	FrameRejoin = 12
	// FrameReset asks a participant to park (abandon any live epoch,
	// keep its WAL) and answer with a FrameRejoin describing its newest
	// stable checkpoint (coordinator → participant; no payload).
	FrameReset = 13
	// FrameRestore asks a parked participant to reload module state from
	// its checkpoint at epoch Phase and prepare to resume at epoch Epoch,
	// answering with a FrameRejoin echo of the restored checkpoint
	// (coordinator → participant; no payload).
	FrameRestore = 14
	// FrameFailed is a participant's report that its current epoch died
	// locally but the process is parked and recoverable: Msg carries the
	// root cause. Unlike FrameAbort it does not tear the channel down.
	FrameFailed = 15
)

// kindNames names the frame kinds, indexed by kind.
var kindNames = [...]string{
	FrameData:     "Data",
	FrameBarrier:  "Barrier",
	FrameSnapshot: "Snapshot",
	FramePoll:     "Poll",
	FrameProgress: "Progress",
	FramePause:    "Pause",
	FrameQuiesced: "Quiesced",
	FramePlan:     "Plan",
	FrameFinish:   "Finish",
	FrameAbort:    "Abort",
	FrameWait:     "Wait",
	FrameStarted:  "Started",
	FrameRejoin:   "Rejoin",
	FrameReset:    "Reset",
	FrameRestore:  "Restore",
	FrameFailed:   "Failed",
}

// KindName names a frame kind for error messages: "Progress" for
// FrameProgress, "kind 16" for a kind no constant defines.
func KindName(kind uint8) string {
	if int(kind) < len(kindNames) {
		return kindNames[kind]
	}
	return fmt.Sprintf("kind %d", kind)
}

// maxWireStarts bounds a plan frame's machine count; a deployment with
// more stages than this is not a plausible frame, it is corruption.
const maxWireStarts = 1 << 20

// maxAbortMsg bounds an abort frame's message so a hostile length
// cannot force a giant allocation.
const maxAbortMsg = 1 << 16

// WireFrame is the decoded form of one link frame: its kind, the
// deployment epoch that produced it (receivers reject frames from a
// stale epoch), the phase it belongs to, and the kind-specific payload
// — Inputs for data frames, Snaps for snapshot frames, Times/Done for
// progress reports, Starts for plans, Msg for aborts, nothing for
// barriers, polls, pauses and finishes.
type WireFrame struct {
	Kind  uint8
	Epoch int
	Phase int
	// Inputs is the data payload (FrameData), already addressed to the
	// receiving machine's bridge vertices.
	Inputs []core.ExtInput
	// Snaps is the state-handoff payload (FrameSnapshot).
	Snaps []core.VertexSnapshot
	// Done reports the participant's machines finished every phase
	// (FrameProgress).
	Done bool
	// Times is measured per-vertex Step time in nanoseconds, indexed by
	// global vertex number minus one (FrameProgress, FrameQuiesced).
	Times []int64
	// Starts is the next epoch's partition: per-machine inclusive start
	// indices into the global numbering (FramePlan).
	Starts []int
	// Msg is the abort reason (FrameAbort).
	Msg string
}

// AppendFrame appends the payload encoding of one frame — kind, epoch,
// phase, then the kind-specific payload — to buf and returns the
// extended slice. The payload is what travels inside the
// length-prefixed wire frame; SendLink adds the prefix.
func AppendFrame(buf []byte, f WireFrame) []byte {
	buf = append(buf, f.Kind)
	buf = binary.AppendUvarint(buf, uint64(f.Epoch))
	buf = binary.AppendUvarint(buf, uint64(f.Phase))
	switch f.Kind {
	case FrameData:
		buf = binary.AppendUvarint(buf, uint64(len(f.Inputs)))
		for _, in := range f.Inputs {
			buf = binary.AppendUvarint(buf, uint64(in.Vertex))
			buf = binary.AppendUvarint(buf, uint64(in.Port))
			buf = AppendValue(buf, in.Val)
		}
	case FrameBarrier, FramePoll, FramePause, FrameFinish, FrameWait:
		// no payload
	case FrameStarted:
		if f.Done {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case FrameSnapshot:
		buf = binary.AppendUvarint(buf, uint64(len(f.Snaps)))
		for _, s := range f.Snaps {
			buf = binary.AppendUvarint(buf, uint64(s.Vertex))
			// Protocol v5: a flags byte per snapshot. Bit 0 marks a
			// delta against the receiver's last-acked full state,
			// identified by an 8-byte FNV-1a hash of that base.
			if s.Delta {
				buf = append(buf, 1)
				buf = binary.LittleEndian.AppendUint64(buf, s.BaseHash)
			} else {
				buf = append(buf, 0)
			}
			buf = binary.AppendUvarint(buf, uint64(len(s.State)))
			buf = append(buf, s.State...)
		}
	case FrameProgress, FrameQuiesced:
		if f.Kind == FrameProgress {
			if f.Done {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(f.Times)))
		for _, t := range f.Times {
			buf = binary.AppendVarint(buf, t)
		}
	case FramePlan:
		buf = binary.AppendUvarint(buf, uint64(len(f.Starts)))
		for _, s := range f.Starts {
			buf = binary.AppendUvarint(buf, uint64(s))
		}
	case FrameAbort, FrameFailed:
		buf = binary.AppendUvarint(buf, uint64(len(f.Msg)))
		buf = append(buf, f.Msg...)
	case FrameReset, FrameRestore:
		// no payload
	case FrameRejoin:
		if f.Done {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(f.Starts)))
		for _, s := range f.Starts {
			buf = binary.AppendUvarint(buf, uint64(s))
		}
	default:
		panic(fmt.Sprintf("netwire: unencodable frame %s", KindName(f.Kind)))
	}
	return buf
}

// DecodeFrame decodes a frame payload produced by AppendFrame. Every
// byte must be consumed: trailing garbage is corruption, not padding.
func DecodeFrame(payload []byte) (WireFrame, error) {
	var f WireFrame
	if len(payload) == 0 {
		return f, fmt.Errorf("netwire: truncated frame: missing kind")
	}
	f.Kind, payload = payload[0], payload[1:]
	epoch, used := binary.Uvarint(payload)
	if used <= 0 {
		return f, fmt.Errorf("netwire: truncated frame: missing epoch")
	}
	if epoch > math.MaxInt32 {
		return f, fmt.Errorf("netwire: implausible epoch %d", epoch)
	}
	f.Epoch = int(epoch)
	payload = payload[used:]
	p, used := binary.Uvarint(payload)
	if used <= 0 {
		return f, fmt.Errorf("netwire: truncated frame: missing phase")
	}
	if p > math.MaxInt32 {
		return f, fmt.Errorf("netwire: implausible phase %d", p)
	}
	f.Phase = int(p)
	payload = payload[used:]
	var err error
	switch f.Kind {
	case FrameData:
		f.Inputs, err = decodeInputs(payload)
	case FrameBarrier, FramePoll, FramePause, FrameFinish, FrameWait:
		if len(payload) != 0 {
			err = fmt.Errorf("netwire: %d payload bytes on a %s frame", len(payload), KindName(f.Kind))
		}
	case FrameStarted:
		if len(payload) != 1 {
			return WireFrame{}, fmt.Errorf("netwire: started frame with %d payload bytes, want 1", len(payload))
		}
		f.Done = payload[0] != 0
	case FrameSnapshot:
		f.Snaps, err = decodeSnaps(payload)
	case FrameProgress, FrameQuiesced:
		if f.Kind == FrameProgress {
			if len(payload) == 0 {
				return WireFrame{}, fmt.Errorf("netwire: truncated progress frame: missing done flag")
			}
			f.Done, payload = payload[0] != 0, payload[1:]
		}
		f.Times, err = decodeTimes(payload)
	case FramePlan:
		f.Starts, err = decodeStarts(payload)
	case FrameAbort, FrameFailed:
		f.Msg, err = decodeMsg(payload)
	case FrameReset, FrameRestore:
		if len(payload) != 0 {
			err = fmt.Errorf("netwire: %d payload bytes on a %s frame", len(payload), KindName(f.Kind))
		}
	case FrameRejoin:
		if len(payload) == 0 {
			return WireFrame{}, fmt.Errorf("netwire: truncated rejoin frame: missing checkpoint flag")
		}
		f.Done, payload = payload[0] != 0, payload[1:]
		f.Starts, err = decodeRejoinStarts(payload)
	default:
		err = fmt.Errorf("netwire: unknown frame %s", KindName(f.Kind))
	}
	if err != nil {
		return WireFrame{}, err
	}
	return f, nil
}

// decodeTimes decodes a progress/quiesced frame's per-vertex time
// vector, consuming the whole payload.
func decodeTimes(payload []byte) ([]int64, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 {
		return nil, fmt.Errorf("netwire: truncated frame: missing time count")
	}
	payload = payload[used:]
	// Each time costs at least one varint byte.
	if n > uint64(len(payload)) {
		return nil, fmt.Errorf("netwire: frame claims %d times in %d bytes", n, len(payload))
	}
	var times []int64
	if n > 0 {
		times = make([]int64, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		t, used := binary.Varint(payload)
		if used <= 0 {
			return nil, fmt.Errorf("netwire: truncated time %d", i)
		}
		payload = payload[used:]
		times = append(times, t)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("netwire: %d trailing bytes after frame", len(payload))
	}
	return times, nil
}

// decodeStarts decodes a plan frame's partition vector, consuming the
// whole payload.
func decodeStarts(payload []byte) ([]int, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 {
		return nil, fmt.Errorf("netwire: truncated frame: missing start count")
	}
	payload = payload[used:]
	if n == 0 || n > maxWireStarts || n > uint64(len(payload)) {
		return nil, fmt.Errorf("netwire: frame claims %d starts in %d bytes", n, len(payload))
	}
	starts := make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		s, used := binary.Uvarint(payload)
		if used <= 0 {
			return nil, fmt.Errorf("netwire: truncated start %d", i)
		}
		payload = payload[used:]
		if s == 0 || s > math.MaxInt32 {
			return nil, fmt.Errorf("netwire: start %d: implausible vertex %d", i, s)
		}
		starts = append(starts, int(s))
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("netwire: %d trailing bytes after frame", len(payload))
	}
	return starts, nil
}

// decodeRejoinStarts decodes a rejoin frame's partition vector. Unlike
// decodeStarts an empty vector is legal: a rejoiner without a
// checkpoint has no partition to report.
func decodeRejoinStarts(payload []byte) ([]int, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 {
		return nil, fmt.Errorf("netwire: truncated frame: missing start count")
	}
	payload = payload[used:]
	if n > maxWireStarts || n > uint64(len(payload)) {
		return nil, fmt.Errorf("netwire: frame claims %d starts in %d bytes", n, len(payload))
	}
	var starts []int
	if n > 0 {
		starts = make([]int, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		s, used := binary.Uvarint(payload)
		if used <= 0 {
			return nil, fmt.Errorf("netwire: truncated start %d", i)
		}
		payload = payload[used:]
		if s == 0 || s > math.MaxInt32 {
			return nil, fmt.Errorf("netwire: start %d: implausible vertex %d", i, s)
		}
		starts = append(starts, int(s))
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("netwire: %d trailing bytes after frame", len(payload))
	}
	return starts, nil
}

// decodeMsg decodes an abort frame's message, consuming the whole
// payload.
func decodeMsg(payload []byte) (string, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 {
		return "", fmt.Errorf("netwire: truncated frame: missing message length")
	}
	payload = payload[used:]
	if n > maxAbortMsg || n != uint64(len(payload)) {
		return "", fmt.Errorf("netwire: abort message of %d bytes in %d-byte payload", n, len(payload))
	}
	return string(payload), nil
}

// decodeInputs decodes a data frame's input list, consuming the whole
// payload.
func decodeInputs(payload []byte) ([]core.ExtInput, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 {
		return nil, fmt.Errorf("netwire: truncated frame: missing input count")
	}
	payload = payload[used:]
	// Each input costs at least 3 bytes (vertex, port, kind), so an
	// input count beyond len/3 cannot be honest — reject it before
	// allocating.
	if n > uint64(len(payload)/3+1) {
		return nil, fmt.Errorf("netwire: frame claims %d inputs in %d bytes", n, len(payload))
	}
	var inputs []core.ExtInput
	if n > 0 {
		inputs = GetInputs(int(n))
	}
	for i := uint64(0); i < n; i++ {
		vtx, used := binary.Uvarint(payload)
		if used <= 0 {
			return nil, fmt.Errorf("netwire: truncated input %d: vertex", i)
		}
		payload = payload[used:]
		port, used := binary.Uvarint(payload)
		if used <= 0 {
			return nil, fmt.Errorf("netwire: truncated input %d: port", i)
		}
		payload = payload[used:]
		if vtx == 0 || vtx > math.MaxInt32 || port > math.MaxInt32 {
			return nil, fmt.Errorf("netwire: input %d: implausible vertex %d / port %d", i, vtx, port)
		}
		var v event.Value
		var err error
		v, payload, err = ReadValue(payload)
		if err != nil {
			return nil, fmt.Errorf("netwire: input %d: %w", i, err)
		}
		inputs = append(inputs, core.ExtInput{Vertex: int(vtx), Port: int(port), Val: v})
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("netwire: %d trailing bytes after frame", len(payload))
	}
	return inputs, nil
}

// decodeSnaps decodes a snapshot frame's vertex-state list, consuming
// the whole payload.
func decodeSnaps(payload []byte) ([]core.VertexSnapshot, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 {
		return nil, fmt.Errorf("netwire: truncated frame: missing snapshot count")
	}
	payload = payload[used:]
	// Each snapshot costs at least 3 bytes (vertex, flags, state
	// length).
	if n > uint64(len(payload)/3+1) {
		return nil, fmt.Errorf("netwire: frame claims %d snapshots in %d bytes", n, len(payload))
	}
	var snaps []core.VertexSnapshot
	if n > 0 {
		snaps = make([]core.VertexSnapshot, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		vtx, used := binary.Uvarint(payload)
		if used <= 0 {
			return nil, fmt.Errorf("netwire: truncated snapshot %d: vertex", i)
		}
		payload = payload[used:]
		if vtx == 0 || vtx > math.MaxInt32 {
			return nil, fmt.Errorf("netwire: snapshot %d: implausible vertex %d", i, vtx)
		}
		if len(payload) == 0 {
			return nil, fmt.Errorf("netwire: truncated snapshot %d: missing flags", i)
		}
		flags := payload[0]
		payload = payload[1:]
		if flags > 1 {
			return nil, fmt.Errorf("netwire: snapshot %d: unknown flags %#x", i, flags)
		}
		var baseHash uint64
		if flags&1 != 0 {
			if len(payload) < 8 {
				return nil, fmt.Errorf("netwire: truncated snapshot %d: missing base hash", i)
			}
			baseHash = binary.LittleEndian.Uint64(payload)
			payload = payload[8:]
		}
		size, used := binary.Uvarint(payload)
		if used <= 0 {
			return nil, fmt.Errorf("netwire: truncated snapshot %d: state length", i)
		}
		payload = payload[used:]
		if size > uint64(len(payload)) {
			return nil, fmt.Errorf("netwire: snapshot %d claims %d state bytes, %d remain", i, size, len(payload))
		}
		state := make([]byte, size)
		copy(state, payload[:size])
		payload = payload[size:]
		snaps = append(snaps, core.VertexSnapshot{Vertex: int(vtx), State: state, Delta: flags&1 != 0, BaseHash: baseHash})
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("netwire: %d trailing bytes after frame", len(payload))
	}
	return snaps, nil
}
