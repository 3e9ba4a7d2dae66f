package netwire

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// values returns one representative of every payload kind plus the
// edge cases the wire format must preserve exactly.
func values() []event.Value {
	return []event.Value{
		event.None(),
		event.Bool(false),
		event.Bool(true),
		event.Int(0),
		event.Int(1),
		event.Int(-1),
		// ±2^53 is event.Int's documented exact-precision boundary;
		// beyond it AsInt itself is lossy, so the wire cannot do better.
		event.Int(1 << 53),
		event.Int(-(1 << 53)),
		event.Float(0),
		event.Float(math.Copysign(0, -1)),
		event.Float(3.14159),
		event.Float(math.Inf(1)),
		event.Float(math.Inf(-1)),
		event.Float(math.NaN()),
		event.String(""),
		event.String("hospital-occupancy"),
		event.String(strings.Repeat("x", 1000)),
		event.String("unicode: Δ-dataflow ∅"),
		event.Vector([]float64{}),
		event.Vector([]float64{1}),
		event.Vector([]float64{-1.5, math.NaN(), math.Inf(1), 0}),
		event.Vector(make([]float64, 512)),
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, v := range values() {
		buf := AppendValue(nil, v)
		got, rest, err := ReadValue(buf)
		if err != nil {
			t.Fatalf("ReadValue(%v): %v", v, err)
		}
		if len(rest) != 0 {
			t.Errorf("ReadValue(%v) left %d bytes", v, len(rest))
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
		if got.Kind() != v.Kind() {
			t.Errorf("round trip changed kind: %v -> %v", v.Kind(), got.Kind())
		}
	}
}

// TestValueRoundTripConcatenated: values decode in sequence from one
// buffer, each consuming exactly its own bytes.
func TestValueRoundTripConcatenated(t *testing.T) {
	vs := values()
	var buf []byte
	for _, v := range vs {
		buf = AppendValue(buf, v)
	}
	for i, want := range vs {
		var got event.Value
		var err error
		got, buf, err = ReadValue(buf)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Errorf("value %d: %v != %v", i, got, want)
		}
	}
	if len(buf) != 0 {
		t.Errorf("%d bytes left after all values", len(buf))
	}
}

func TestValueTruncatedRejected(t *testing.T) {
	// Every strict prefix of a value encoding must fail: length fields
	// precede their payloads and varints keep their continuation bit set
	// until the final byte, so a truncation can never pass for a
	// complete (shorter) value.
	for _, v := range values() {
		full := AppendValue(nil, v)
		for cut := 0; cut < len(full); cut++ {
			if _, _, err := ReadValue(full[:cut]); err == nil {
				t.Errorf("truncated %v at %d/%d bytes accepted", v, cut, len(full))
			}
		}
	}
}

func TestValueUnknownKindRejected(t *testing.T) {
	for _, b := range []byte{6, 7, 99, 255} {
		if _, _, err := ReadValue([]byte{b}); err == nil {
			t.Errorf("kind %d accepted", b)
		}
	}
}

func frameInputs() []core.ExtInput {
	return []core.ExtInput{
		{Vertex: 1, Port: 0, Val: event.Int(42)},
		{Vertex: 7, Port: 3, Val: event.String("")},
		{Vertex: 123456, Port: 0, Val: event.Vector([]float64{1, 2, 3})},
		{Vertex: 2, Port: 1, Val: event.None()},
		{Vertex: 9, Port: 0, Val: event.Float(math.NaN())},
		{Vertex: 10, Port: 0, Val: event.Bool(true)},
	}
}

func frameSnaps() []core.VertexSnapshot {
	return []core.VertexSnapshot{
		{Vertex: 3, State: []byte{}},
		{Vertex: 7, State: []byte{0x00}},
		{Vertex: 123456, State: []byte("opaque module state \xff\x00")},
	}
}

func framesEqual(t *testing.T, got, want WireFrame) {
	t.Helper()
	if got.Kind != want.Kind || got.Epoch != want.Epoch || got.Phase != want.Phase {
		t.Errorf("frame header %d/%d/%d != %d/%d/%d",
			got.Kind, got.Epoch, got.Phase, want.Kind, want.Epoch, want.Phase)
	}
	if len(got.Inputs) != len(want.Inputs) {
		t.Fatalf("%d inputs != %d", len(got.Inputs), len(want.Inputs))
	}
	for i := range got.Inputs {
		if got.Inputs[i].Vertex != want.Inputs[i].Vertex || got.Inputs[i].Port != want.Inputs[i].Port {
			t.Errorf("input %d addressing %+v != %+v", i, got.Inputs[i], want.Inputs[i])
		}
		if !got.Inputs[i].Val.Equal(want.Inputs[i].Val) {
			t.Errorf("input %d value %v != %v", i, got.Inputs[i].Val, want.Inputs[i].Val)
		}
	}
	if len(got.Snaps) != len(want.Snaps) {
		t.Fatalf("%d snaps != %d", len(got.Snaps), len(want.Snaps))
	}
	for i := range got.Snaps {
		if got.Snaps[i].Vertex != want.Snaps[i].Vertex || string(got.Snaps[i].State) != string(want.Snaps[i].State) {
			t.Errorf("snapshot %d: %+v != %+v", i, got.Snaps[i], want.Snaps[i])
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		f    WireFrame
	}{
		{"empty", WireFrame{Kind: FrameData, Phase: 1}},
		{"empty high phase", WireFrame{Kind: FrameData, Phase: 1 << 30}},
		{"mixed kinds", WireFrame{Kind: FrameData, Epoch: 2, Phase: 17, Inputs: frameInputs()}},
		{"single", WireFrame{Kind: FrameData, Phase: 2, Inputs: frameInputs()[:1]}},
		{"barrier", WireFrame{Kind: FrameBarrier, Epoch: 3, Phase: 240}},
		{"snapshot", WireFrame{Kind: FrameSnapshot, Epoch: 1, Phase: 9, Snaps: frameSnaps()}},
		{"snapshot empty", WireFrame{Kind: FrameSnapshot, Epoch: 4, Phase: 9}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			payload := AppendFrame(nil, c.f)
			got, err := DecodeFrame(payload)
			if err != nil {
				t.Fatal(err)
			}
			framesEqual(t, got, c.f)
		})
	}
}

// TestRecoveryFrameRoundTrip pins the v4 recovery kinds: rejoin
// frames (with and without a checkpoint to report), the payload-free
// reset/restore commands, and the failed report.
func TestRecoveryFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		f    WireFrame
	}{
		{"rejoin with checkpoint", WireFrame{Kind: FrameRejoin, Epoch: 3, Phase: 120, Done: true, Starts: []int{1, 4, 7}}},
		{"rejoin empty wal", WireFrame{Kind: FrameRejoin, Epoch: 0, Phase: 0, Done: false}},
		{"reset", WireFrame{Kind: FrameReset, Epoch: 5, Phase: 0}},
		{"restore", WireFrame{Kind: FrameRestore, Epoch: 6, Phase: 4}},
		{"failed", WireFrame{Kind: FrameFailed, Epoch: 2, Phase: 88, Msg: "machine 1: link 1->2 closed"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			payload := AppendFrame(nil, c.f)
			got, err := DecodeFrame(payload)
			if err != nil {
				t.Fatal(err)
			}
			framesEqual(t, got, c.f)
			if got.Done != c.f.Done || got.Msg != c.f.Msg || len(got.Starts) != len(c.f.Starts) {
				t.Fatalf("payload changed: %+v -> %+v", c.f, got)
			}
			for i := range got.Starts {
				if got.Starts[i] != c.f.Starts[i] {
					t.Fatalf("starts %v -> %v", c.f.Starts, got.Starts)
				}
			}
		})
	}
}

// TestRecoveryFrameHostileRejected: the rejoin decoder keeps the plan
// decoder's bounds checks even though it additionally allows an empty
// partition.
func TestRecoveryFrameHostileRejected(t *testing.T) {
	header := func(kind uint8) []byte {
		buf := []byte{kind}
		buf = binary.AppendUvarint(buf, 0) // epoch
		buf = binary.AppendUvarint(buf, 1) // phase
		return buf
	}
	// absurd start count
	buf := append(header(FrameRejoin), 1) // has-checkpoint flag
	buf = binary.AppendUvarint(buf, math.MaxInt32)
	if _, err := DecodeFrame(buf); err == nil {
		t.Error("absurd rejoin start count accepted")
	}
	// vertex 0 is not a start
	buf = append(header(FrameRejoin), 1)
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, 0)
	if _, err := DecodeFrame(buf); err == nil {
		t.Error("rejoin start 0 accepted")
	}
	// reset/restore must carry no payload
	if _, err := DecodeFrame(append(header(FrameReset), 0)); err == nil {
		t.Error("reset frame with payload accepted")
	}
	if _, err := DecodeFrame(append(header(FrameRestore), 0)); err == nil {
		t.Error("restore frame with payload accepted")
	}
	// truncation of every recovery frame prefix is rejected
	for _, f := range []WireFrame{
		{Kind: FrameRejoin, Epoch: 3, Phase: 9, Done: true, Starts: []int{1, 2, 5}},
		{Kind: FrameFailed, Epoch: 1, Phase: 2, Msg: "boom"},
	} {
		full := AppendFrame(nil, f)
		for cut := 0; cut < len(full); cut++ {
			if _, err := DecodeFrame(full[:cut]); err == nil {
				t.Errorf("kind %d: truncated frame at %d/%d accepted", f.Kind, cut, len(full))
			}
		}
	}
}

func TestFrameTruncatedRejected(t *testing.T) {
	for _, f := range []WireFrame{
		{Kind: FrameData, Epoch: 1, Phase: 99, Inputs: frameInputs()},
		{Kind: FrameSnapshot, Epoch: 2, Phase: 40, Snaps: frameSnaps()},
	} {
		full := AppendFrame(nil, f)
		for cut := 0; cut < len(full); cut++ {
			if _, err := DecodeFrame(full[:cut]); err == nil {
				t.Errorf("kind %d: truncated frame at %d/%d accepted", f.Kind, cut, len(full))
			}
		}
	}
}

func TestFrameTrailingBytesRejected(t *testing.T) {
	for _, f := range []WireFrame{
		{Kind: FrameData, Phase: 5, Inputs: frameInputs()[:2]},
		{Kind: FrameBarrier, Phase: 5},
		{Kind: FrameSnapshot, Phase: 5, Snaps: frameSnaps()[:1]},
	} {
		full := AppendFrame(nil, f)
		if _, err := DecodeFrame(append(full, 0)); err == nil {
			t.Errorf("kind %d: frame with trailing byte accepted", f.Kind)
		}
	}
}

func TestFrameUnknownKindRejected(t *testing.T) {
	buf := []byte{0x7f}
	buf = binary.AppendUvarint(buf, 0) // epoch
	buf = binary.AppendUvarint(buf, 1) // phase
	if _, err := DecodeFrame(buf); err == nil {
		t.Error("unknown frame kind accepted")
	}
}

// TestFrameImplausibleCountsRejected: hostile length fields fail fast
// instead of allocating or over-reading.
func TestFrameImplausibleCountsRejected(t *testing.T) {
	header := func(kind uint8) []byte {
		buf := []byte{kind}
		buf = binary.AppendUvarint(buf, 0) // epoch
		buf = binary.AppendUvarint(buf, 1) // phase
		return buf
	}
	// input count far beyond the payload size
	buf := binary.AppendUvarint(header(FrameData), math.MaxInt32)
	if _, err := DecodeFrame(buf); err == nil {
		t.Error("absurd input count accepted")
	}
	// vertex 0 is not a vertex
	buf = binary.AppendUvarint(header(FrameData), 1)
	buf = binary.AppendUvarint(buf, 0) // vertex
	buf = binary.AppendUvarint(buf, 0) // port
	buf = AppendValue(buf, event.Int(1))
	if _, err := DecodeFrame(buf); err == nil {
		t.Error("vertex 0 accepted")
	}
	// snapshot count far beyond the payload size
	buf = binary.AppendUvarint(header(FrameSnapshot), math.MaxInt32)
	if _, err := DecodeFrame(buf); err == nil {
		t.Error("absurd snapshot count accepted")
	}
	// snapshot state length beyond the remaining bytes
	buf = binary.AppendUvarint(header(FrameSnapshot), 1)
	buf = binary.AppendUvarint(buf, 1)     // vertex
	buf = binary.AppendUvarint(buf, 1<<30) // state length
	if _, err := DecodeFrame(buf); err == nil {
		t.Error("absurd snapshot state length accepted")
	}
	// vector claiming more elements than bytes remain
	buf = []byte{wireVector}
	buf = binary.AppendUvarint(buf, 1<<40)
	if _, _, err := ReadValue(buf); err == nil {
		t.Error("absurd vector length accepted")
	}
	// string claiming more bytes than remain
	buf = []byte{wireString}
	buf = binary.AppendUvarint(buf, 1<<30)
	if _, _, err := ReadValue(buf); err == nil {
		t.Error("absurd string length accepted")
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	var b strings.Builder
	hs := Handshake{From: 3, To: 11, Window: 8}
	if err := writeHandshake(&b, hs); err != nil {
		t.Fatal(err)
	}
	got, err := readHandshake(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got != hs {
		t.Errorf("handshake %+v != %+v", got, hs)
	}
}

func TestHandshakeRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"short":       "FWR1",
		"bad magic":   "NOPE" + strings.Repeat("\x00", 13),
		"bad version": "FWR1\x7f" + strings.Repeat("\x00", 12),
		// valid magic+version but zero window
		"zero window": "FWR1\x01" + strings.Repeat("\x00", 12),
	}
	for name, raw := range cases {
		if _, err := readHandshake(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Every frame kind has a name for error messages, and a kind no
// constant defines still reads as its number.
func TestKindName(t *testing.T) {
	for kind, want := range map[uint8]string{
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
		16:            "kind 16",
		255:           "kind 255",
	} {
		if got := KindName(kind); got != want {
			t.Errorf("KindName(%d) = %q, want %q", kind, got, want)
		}
	}
}
