package wire

import (
	"bytes"
	"testing"

	"cpm/internal/model"
)

// FuzzFrame is the decoder robustness target: arbitrary bytes must never
// panic the parser or any typed decoder, and every frame that decodes
// cleanly must survive a re-encode/re-decode round trip byte-for-byte
// (run with `go test -fuzz=FuzzFrame ./internal/wire`). The seed corpus —
// one valid frame of every type plus corrupted variants — is both in-code
// (f.Add) and checked in under testdata/fuzz.
func FuzzFrame(f *testing.F) {
	for _, frame := range sampleFrames() {
		f.Add(frame)
		// A truncated and a bit-flipped variant of each, so coverage
		// starts on the error paths too.
		f.Add(frame[:len(frame)-1])
		flipped := append([]byte(nil), frame...)
		flipped[len(flipped)/2] ^= 0x80
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for depth := 0; depth < 16; depth++ { // bounded walk over a multi-frame input
			typ, payload, next, err := ParseFrame(rest)
			if err != nil {
				return
			}
			if err := decodeAny(typ, payload); err == nil {
				reencoded, ok := reencode(typ, payload)
				if ok && !bytes.Equal(reencoded, rest[:len(rest)-len(next)]) {
					t.Fatalf("%v: re-encode differs\n in: %x\nout: %x", typ, rest[:len(rest)-len(next)], reencoded)
				}
			}
			rest = next
		}
	})
}

// reencode decodes a valid payload and encodes it again. It reports ok =
// false for payloads whose wire form is legitimately non-canonical (the
// varint encodings this protocol emits are canonical, so in practice every
// accepted frame re-encodes identically; non-minimal varints produced by a
// fuzzer decode fine but re-encode shorter, which is fine — we only check
// equality when the input was canonical).
func reencode(t FrameType, p []byte) (frame []byte, ok bool) {
	switch t {
	case FrameHello:
		flags, err := DecodeHello(p)
		if err != nil {
			return nil, false
		}
		frame = AppendHello(nil, flags)
	case FrameWelcome:
		inst, flags, err := DecodeWelcome(p)
		if err != nil {
			return nil, false
		}
		if flags != 0 {
			frame = AppendWelcomeFlags(nil, inst, flags)
		} else {
			frame = AppendWelcome(nil, inst)
		}
	case FrameBootstrap:
		req, objs, err := DecodeBootstrap(p)
		if err != nil {
			return nil, false
		}
		frame = AppendBootstrap(nil, req, objs)
	case FrameTick:
		req, b, err := DecodeTick(p)
		if err != nil {
			return nil, false
		}
		frame = AppendTick(nil, req, b)
	case FrameRegister:
		req, r, err := DecodeRegister(p)
		if err != nil {
			return nil, false
		}
		frame = AppendRegister(nil, req, r)
	case FrameMoveQuery:
		req, id, pts, err := DecodeMoveQuery(p)
		if err != nil {
			return nil, false
		}
		frame = AppendMoveQuery(nil, req, id, pts)
	case FrameRemoveQuery:
		req, id, err := DecodeRemoveQuery(p)
		if err != nil {
			return nil, false
		}
		frame = AppendRemoveQuery(nil, req, id)
	case FrameResultReq:
		req, id, err := DecodeResultReq(p)
		if err != nil {
			return nil, false
		}
		frame = AppendResultReq(nil, req, id)
	case FrameSubscribe:
		req, s, err := DecodeSubscribe(p)
		if err != nil {
			return nil, false
		}
		frame = AppendSubscribe(nil, req, s)
	case FrameUnsubscribe:
		req, id, err := DecodeUnsubscribe(p)
		if err != nil {
			return nil, false
		}
		frame = AppendUnsubscribe(nil, req, id)
	case FrameAck:
		req, msg, err := DecodeAck(p)
		if err != nil {
			return nil, false
		}
		frame = AppendAck(nil, req, msg)
	case FrameResult:
		req, id, live, res, err := DecodeResult(p)
		if err != nil {
			return nil, false
		}
		frame = AppendResult(nil, req, id, live, res)
	case FrameEvent:
		ev, err := DecodeEvent(p)
		if err != nil {
			return nil, false
		}
		frame = AppendEvent(nil, ev.SubID, ev.Seq, ev.Diff)
	case FrameSnapshot:
		s, err := DecodeSnapshot(p)
		if err != nil {
			return nil, false
		}
		frame = AppendSnapshot(nil, s)
	case FrameGap:
		g, err := DecodeGap(p)
		if err != nil {
			return nil, false
		}
		frame = AppendGap(nil, g)
	case FrameStatsReq:
		req, err := DecodeStatsReq(p)
		if err != nil {
			return nil, false
		}
		frame = AppendStatsReq(nil, req)
	case FrameStats:
		req, stats, err := DecodeStats(p)
		if err != nil {
			return nil, false
		}
		frame = AppendStats(nil, req, stats)
	case FrameDiffs:
		req, diffs, ph, err := DecodeDiffsPhases(p)
		if err != nil {
			return nil, false
		}
		if ph != (model.PhaseNanos{}) {
			frame = AppendDiffsPhases(nil, req, diffs, ph)
		} else {
			frame = AppendDiffs(nil, req, diffs)
		}
	case FrameReset:
		req, err := DecodeReset(p)
		if err != nil {
			return nil, false
		}
		frame = AppendReset(nil, req)
	case FrameTraceCtx:
		tid, sid, err := DecodeTraceCtx(p)
		if err != nil {
			return nil, false
		}
		frame = AppendTraceCtx(nil, tid, sid)
	case FrameTracesReq:
		req, tid, err := DecodeTracesReq(p)
		if err != nil {
			return nil, false
		}
		frame = AppendTracesReq(nil, req, tid)
	case FrameTraces:
		req, doc, err := DecodeTraces(p)
		if err != nil {
			return nil, false
		}
		frame = AppendTraces(nil, req, doc)
	default:
		return nil, false
	}
	// Floats break byte-for-byte comparison only via NaN payload bits; the
	// encoder preserves exact bits (Float64bits round trip), so frames
	// containing any float still compare equal. Non-minimal varints do
	// not: detect them by length mismatch and skip the strict comparison.
	if len(frame) != len(p)+headerLen {
		return nil, false
	}
	return frame, true
}

// FuzzEventRoundTrip fuzzes the hot-path frame from structured inputs:
// whatever diff the fuzzer assembles must encode and decode to identical
// values (run with `go test -fuzz=FuzzEventRoundTrip ./internal/wire`).
func FuzzEventRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint64(42), int32(7), uint8(0), int32(3), 0.25, int32(9), 3)
	f.Add(uint32(0), uint64(0), int32(-1), uint8(2), int32(0), -1.5, int32(1), 0)
	f.Add(uint32(1<<31), uint64(1)<<63, int32(1<<30), uint8(1), int32(-5), 1e300, int32(2), 7)

	f.Fuzz(func(t *testing.T, subID uint32, seq uint64, query int32, kind uint8, oid int32, dist float64, oid2 int32, n int) {
		if kind > uint8(model.DiffRemove) {
			kind = uint8(model.DiffRemove)
		}
		if n < 0 {
			n = -n
		}
		n %= 8
		d := model.ResultDiff{Query: model.QueryID(query), Kind: model.DiffKind(kind)}
		for i := 0; i < n; i++ {
			nb := model.Neighbor{ID: model.ObjectID(oid) + model.ObjectID(i), Dist: dist * float64(i+1)}
			d.Entered = append(d.Entered, nb)
			if d.Kind != model.DiffRemove {
				d.Result = append(d.Result, nb)
			}
		}
		if n > 0 {
			d.Exited = append(d.Exited, model.ObjectID(oid2))
		}
		frame := AppendEvent(nil, subID, seq, d)
		typ, payload, rest, err := ParseFrame(frame)
		if err != nil || typ != FrameEvent || len(rest) != 0 {
			t.Fatalf("ParseFrame = (%v, rest %d, %v)", typ, len(rest), err)
		}
		ev, err := DecodeEvent(payload)
		if err != nil {
			t.Fatalf("DecodeEvent: %v", err)
		}
		if ev.SubID != subID || ev.Seq != seq || ev.Diff.Query != d.Query || ev.Diff.Kind != d.Kind {
			t.Fatalf("header fields corrupted: %+v", ev)
		}
		if len(ev.Diff.Entered) != len(d.Entered) || len(ev.Diff.Exited) != len(d.Exited) {
			t.Fatalf("slice lengths corrupted: %+v", ev.Diff)
		}
		for i := range d.Entered {
			got, want := ev.Diff.Entered[i], d.Entered[i]
			// NaN-safe bitwise comparison.
			if got.ID != want.ID || (got.Dist != want.Dist && !(got.Dist != got.Dist && want.Dist != want.Dist)) {
				t.Fatalf("entered[%d] = %+v, want %+v", i, got, want)
			}
		}
	})
}
