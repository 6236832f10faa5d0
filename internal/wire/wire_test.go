package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// sampleDiff builds a representative result diff for round trips.
func sampleDiff() model.ResultDiff {
	return model.ResultDiff{
		Query: 42,
		Kind:  model.DiffUpdate,
		Entered: []model.Neighbor{
			{ID: 7, Dist: 0.125}, {ID: 9, Dist: 0.25},
		},
		Exited: []model.ObjectID{3, 11},
		Reranked: []model.Neighbor{
			{ID: 5, Dist: 0.3},
		},
		Result: []model.Neighbor{
			{ID: 7, Dist: 0.125}, {ID: 9, Dist: 0.25}, {ID: 5, Dist: 0.3},
		},
	}
}

// sampleFrames encodes one of every frame type, in order.
func sampleFrames() [][]byte {
	batch := model.Batch{
		Objects: []model.Update{
			model.MoveUpdate(1, geom.Point{X: 0.1, Y: 0.2}, geom.Point{X: 0.3, Y: 0.4}),
			model.InsertUpdate(2, geom.Point{X: 0.5, Y: 0.6}),
			model.DeleteUpdate(3, geom.Point{X: 0.7, Y: 0.8}),
		},
		Queries: []model.QueryUpdate{
			{ID: 4, Kind: model.QueryMove, NewPoints: []geom.Point{{X: 0.9, Y: 0.1}}},
			{ID: 5, Kind: model.QueryTerminate},
		},
	}
	return [][]byte{
		AppendHello(nil, HelloSyncDiffs),
		AppendWelcome(nil, 0xDEADBEEF),
		AppendBootstrap(nil, 1, []BootstrapObject{{ID: 1, Pos: geom.Point{X: 0.1, Y: 0.9}}, {ID: 2, Pos: geom.Point{X: 0.2, Y: 0.8}}}),
		AppendTick(nil, 2, batch),
		AppendRegister(nil, 3, Register{ID: 10, Kind: KindPoint, K: 8, Points: []geom.Point{{X: 0.4, Y: 0.4}}}),
		AppendRegister(nil, 4, Register{ID: 11, Kind: KindAgg, K: 4, Agg: geom.AggMax, Points: []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}}}),
		AppendRegister(nil, 5, Register{ID: 12, Kind: KindConstrained, K: 2, Points: []geom.Point{{X: 0.5, Y: 0.5}}, Region: geom.Rect{Lo: geom.Point{X: 0.2, Y: 0.2}, Hi: geom.Point{X: 0.8, Y: 0.8}}}),
		AppendRegister(nil, 6, Register{ID: 13, Kind: KindRange, Points: []geom.Point{{X: 0.3, Y: 0.3}}, Radius: 0.05}),
		AppendMoveQuery(nil, 7, 10, []geom.Point{{X: 0.6, Y: 0.6}}),
		AppendRemoveQuery(nil, 8, 11),
		AppendResultReq(nil, 9, 10),
		AppendSubscribe(nil, 10, Subscribe{SubID: 1, Buffer: 64, Policy: 1, Snapshot: true, Queries: []model.QueryID{10, 12}, Resume: []ResumePoint{{Query: 10, Seq: 77}}}),
		AppendUnsubscribe(nil, 11, 1),
		AppendAck(nil, 12, ""),
		AppendAck(nil, 13, "cpm: some failure"),
		AppendResult(nil, 14, 10, true, []model.Neighbor{{ID: 1, Dist: 0.01}}),
		AppendEvent(nil, 1, 99, sampleDiff()),
		AppendSnapshot(nil, Snapshot{SubID: 1, Query: 10, Live: true, ResumeSeq: 77, Result: []model.Neighbor{{ID: 1, Dist: 0.01}}}),
		AppendGap(nil, Gap{SubID: 1, From: 5, To: 9}),
		AppendStatsReq(nil, 15),
		AppendStats(nil, 15, []Stat{{Name: "cpm_server_frames_in_total", Value: 12345}, {Name: "cpm_monitor_cycle_ns_p99_ns", Value: -1}}),
		AppendDiffs(nil, 16, []model.ResultDiff{sampleDiff(), {Query: 2, Kind: model.DiffRemove, Exited: []model.ObjectID{4}}}),
		AppendReset(nil, 17),
	}
}

// TestRoundTrip encodes every frame type, re-parses it and compares the
// decoded values field by field.
func TestRoundTrip(t *testing.T) {
	check := func(frame []byte, want FrameType, verify func(p []byte) error) {
		t.Helper()
		typ, payload, rest, err := ParseFrame(frame)
		if err != nil {
			t.Fatalf("%v: ParseFrame: %v", want, err)
		}
		if typ != want || len(rest) != 0 {
			t.Fatalf("ParseFrame = (%v, rest %d), want (%v, 0)", typ, len(rest), want)
		}
		if err := verify(payload); err != nil {
			t.Fatalf("%v: %v", want, err)
		}
	}

	for _, flags := range []uint8{0, HelloSyncDiffs, 0xFF} {
		check(AppendHello(nil, flags), FrameHello, func(p []byte) error {
			got, err := DecodeHello(p)
			if err != nil {
				return err
			}
			if got != flags {
				t.Fatalf("hello flags = %#x, want %#x", got, flags)
			}
			return nil
		})
	}
	for _, inst := range []uint64{0, 7, 1<<64 - 1} {
		check(AppendWelcome(nil, inst), FrameWelcome, func(p []byte) error {
			got, flags, err := DecodeWelcome(p)
			if err != nil {
				return err
			}
			if got != inst || flags != 0 {
				t.Fatalf("welcome = (%d, %#x), want (%d, 0)", got, flags, inst)
			}
			return nil
		})
	}
	// Legacy Hello/Welcome frames carry only the magic; the optional
	// trailing fields must decode as zero.
	legacy := beginFrame(nil, FrameHello)
	legacy = binary.LittleEndian.AppendUint32(legacy, Magic)
	legacy = endFrame(legacy, 0)
	check(legacy, FrameHello, func(p []byte) error {
		flags, err := DecodeHello(p)
		if err != nil {
			return err
		}
		if flags != 0 {
			t.Fatalf("legacy hello flags = %#x, want 0", flags)
		}
		if inst, wflags, err := DecodeWelcome(p); err != nil || inst != 0 || wflags != 0 {
			t.Fatalf("legacy welcome = (%d, %#x, %v), want (0, 0, nil)", inst, wflags, err)
		}
		return nil
	})

	objs := []BootstrapObject{{ID: 1, Pos: geom.Point{X: 0.1, Y: 0.9}}, {ID: -2, Pos: geom.Point{X: 0.2, Y: 0.8}}}
	check(AppendBootstrap(nil, 17, objs), FrameBootstrap, func(p []byte) error {
		req, got, err := DecodeBootstrap(p)
		if err != nil {
			return err
		}
		if req != 17 || !reflect.DeepEqual(got, objs) {
			t.Fatalf("bootstrap = (%d, %+v)", req, got)
		}
		return nil
	})

	batch := model.Batch{
		Objects: []model.Update{
			model.MoveUpdate(1, geom.Point{X: 0.1, Y: 0.2}, geom.Point{X: 0.3, Y: 0.4}),
			model.InsertUpdate(2, geom.Point{X: 0.5, Y: 0.6}),
			model.DeleteUpdate(3, geom.Point{X: 0.7, Y: 0.8}),
		},
		Queries: []model.QueryUpdate{
			{ID: 4, Kind: model.QueryMove, NewPoints: []geom.Point{{X: 0.9, Y: 0.1}, {X: 0.2, Y: 0.3}}},
			{ID: 5, Kind: model.QueryTerminate},
		},
	}
	check(AppendTick(nil, 18, batch), FrameTick, func(p []byte) error {
		req, got, err := DecodeTick(p)
		if err != nil {
			return err
		}
		if req != 18 || !reflect.DeepEqual(got, batch) {
			t.Fatalf("tick = (%d, %+v), want (18, %+v)", req, got, batch)
		}
		return nil
	})

	regs := []Register{
		{ID: 10, Kind: KindPoint, K: 8, Points: []geom.Point{{X: 0.4, Y: 0.4}}},
		{ID: 11, Kind: KindAgg, K: 4, Agg: geom.AggMax, Points: []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}}},
		{ID: 12, Kind: KindConstrained, K: 2, Points: []geom.Point{{X: 0.5, Y: 0.5}}, Region: geom.Rect{Lo: geom.Point{X: 0.2, Y: 0.2}, Hi: geom.Point{X: 0.8, Y: 0.8}}},
		{ID: 13, Kind: KindRange, Points: []geom.Point{{X: 0.3, Y: 0.3}}, Radius: 0.05},
	}
	for _, reg := range regs {
		check(AppendRegister(nil, 19, reg), FrameRegister, func(p []byte) error {
			req, got, err := DecodeRegister(p)
			if err != nil {
				return err
			}
			if req != 19 || !reflect.DeepEqual(got, reg) {
				t.Fatalf("register = (%d, %+v), want (19, %+v)", req, got, reg)
			}
			return nil
		})
	}

	pts := []geom.Point{{X: 0.6, Y: 0.6}}
	check(AppendMoveQuery(nil, 20, 10, pts), FrameMoveQuery, func(p []byte) error {
		req, id, got, err := DecodeMoveQuery(p)
		if err != nil {
			return err
		}
		if req != 20 || id != 10 || !reflect.DeepEqual(got, pts) {
			t.Fatalf("movequery = (%d, %d, %v)", req, id, got)
		}
		return nil
	})

	check(AppendRemoveQuery(nil, 21, 11), FrameRemoveQuery, func(p []byte) error {
		req, id, err := DecodeRemoveQuery(p)
		if err != nil {
			return err
		}
		if req != 21 || id != 11 {
			t.Fatalf("removequery = (%d, %d)", req, id)
		}
		return nil
	})

	check(AppendResultReq(nil, 22, 12), FrameResultReq, func(p []byte) error {
		req, id, err := DecodeResultReq(p)
		if err != nil {
			return err
		}
		if req != 22 || id != 12 {
			t.Fatalf("resultreq = (%d, %d)", req, id)
		}
		return nil
	})

	sub := Subscribe{SubID: 3, Buffer: 128, Policy: 1, Snapshot: true, Reset: true,
		Queries: []model.QueryID{10, 12}, Resume: []ResumePoint{{Query: 10, Seq: 77}, {Query: 12, Seq: 3}}}
	check(AppendSubscribe(nil, 23, sub), FrameSubscribe, func(p []byte) error {
		req, got, err := DecodeSubscribe(p)
		if err != nil {
			return err
		}
		if req != 23 || !reflect.DeepEqual(got, sub) {
			t.Fatalf("subscribe = (%d, %+v), want (23, %+v)", req, got, sub)
		}
		return nil
	})

	check(AppendUnsubscribe(nil, 24, 3), FrameUnsubscribe, func(p []byte) error {
		req, id, err := DecodeUnsubscribe(p)
		if err != nil {
			return err
		}
		if req != 24 || id != 3 {
			t.Fatalf("unsubscribe = (%d, %d)", req, id)
		}
		return nil
	})

	for _, msg := range []string{"", "cpm: some failure"} {
		check(AppendAck(nil, 25, msg), FrameAck, func(p []byte) error {
			req, got, err := DecodeAck(p)
			if err != nil {
				return err
			}
			if req != 25 || got != msg {
				t.Fatalf("ack = (%d, %q), want (25, %q)", req, got, msg)
			}
			return nil
		})
	}

	res := []model.Neighbor{{ID: 1, Dist: 0.01}, {ID: 2, Dist: math.Inf(1)}}
	check(AppendResult(nil, 26, 10, true, res), FrameResult, func(p []byte) error {
		req, id, live, got, err := DecodeResult(p)
		if err != nil {
			return err
		}
		if req != 26 || id != 10 || !live || !reflect.DeepEqual(got, res) {
			t.Fatalf("result = (%d, %d, %v, %v)", req, id, live, got)
		}
		return nil
	})

	diffs := []model.ResultDiff{
		sampleDiff(),
		{Query: 1, Kind: model.DiffInstall, Entered: []model.Neighbor{{ID: 2, Dist: 0.5}}, Result: []model.Neighbor{{ID: 2, Dist: 0.5}}},
		{Query: 2, Kind: model.DiffRemove, Exited: []model.ObjectID{4, 5}},
		{Query: 3, Kind: model.DiffUpdate}, // empty delta, empty result
	}
	for _, d := range diffs {
		check(AppendEvent(nil, 9, 1234, d), FrameEvent, func(p []byte) error {
			ev, err := DecodeEvent(p)
			if err != nil {
				return err
			}
			want := Event{SubID: 9, Seq: 1234, Diff: d}
			if !reflect.DeepEqual(ev, want) {
				t.Fatalf("event = %+v, want %+v", ev, want)
			}
			return nil
		})
	}

	snap := Snapshot{SubID: 9, Query: 10, Live: true, ResumeSeq: 77, Result: res}
	check(AppendSnapshot(nil, snap), FrameSnapshot, func(p []byte) error {
		got, err := DecodeSnapshot(p)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("snapshot = %+v, want %+v", got, snap)
		}
		return nil
	})
	dead := Snapshot{SubID: 9, Query: 11, Live: false, ResumeSeq: 5}
	check(AppendSnapshot(nil, dead), FrameSnapshot, func(p []byte) error {
		got, err := DecodeSnapshot(p)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, dead) {
			t.Fatalf("dead snapshot = %+v, want %+v", got, dead)
		}
		return nil
	})

	gap := Gap{SubID: 9, From: 5, To: 9}
	check(AppendGap(nil, gap), FrameGap, func(p []byte) error {
		got, err := DecodeGap(p)
		if err != nil {
			return err
		}
		if got != gap {
			t.Fatalf("gap = %+v, want %+v", got, gap)
		}
		return nil
	})

	check(AppendStatsReq(nil, 27), FrameStatsReq, func(p []byte) error {
		req, err := DecodeStatsReq(p)
		if err != nil {
			return err
		}
		if req != 27 {
			t.Fatalf("statsreq = %d, want 27", req)
		}
		return nil
	})

	for _, stats := range [][]Stat{
		nil,
		{{Name: "cpm_server_connections_active", Value: 3}, {Name: "cpm_monitor_cycle_ns_p99_ns", Value: 1 << 40}, {Name: "", Value: -7}},
	} {
		check(AppendStats(nil, 28, stats), FrameStats, func(p []byte) error {
			req, got, err := DecodeStats(p)
			if err != nil {
				return err
			}
			if req != 28 || !reflect.DeepEqual(got, stats) {
				t.Fatalf("stats = (%d, %+v), want (28, %+v)", req, got, stats)
			}
			return nil
		})
	}

	for _, ds := range [][]model.ResultDiff{
		nil,
		{sampleDiff()},
		{{Query: 2, Kind: model.DiffRemove, Exited: []model.ObjectID{4, 5}}, sampleDiff()},
	} {
		check(AppendDiffs(nil, 29, ds), FrameDiffs, func(p []byte) error {
			req, got, ph, err := DecodeDiffsPhases(p)
			if err != nil {
				return err
			}
			if req != 29 || !reflect.DeepEqual(got, ds) || ph != (model.PhaseNanos{}) {
				t.Fatalf("diffs = (%d, %+v), want (29, %+v)", req, got, ds)
			}
			return nil
		})
	}

	check(AppendReset(nil, 30), FrameReset, func(p []byte) error {
		req, err := DecodeReset(p)
		if err != nil {
			return err
		}
		if req != 30 {
			t.Fatalf("reset = %d, want 30", req)
		}
		return nil
	})
}

// TestReaderStream writes every sample frame into one stream and reads
// them back via Reader, checking types and clean EOF handling.
func TestReaderStream(t *testing.T) {
	frames := sampleFrames()
	var stream bytes.Buffer
	for _, f := range frames {
		stream.Write(f)
	}
	r := NewReader(&stream)
	for i, f := range frames {
		typ, payload, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := FrameType(f[5]); typ != want {
			t.Fatalf("frame %d: type %v, want %v", i, typ, want)
		}
		if !bytes.Equal(payload, f[headerLen:]) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	// EOF mid-frame must be ErrUnexpectedEOF, both in the header and in
	// the payload.
	whole := AppendEvent(nil, 1, 2, sampleDiff())
	for _, cut := range []int{3, headerLen + 1} {
		r := NewReader(bytes.NewReader(whole[:cut]))
		if _, _, err := r.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestMalformedRejected feeds structurally broken frames to the parser and
// decoders; every one must error, never panic, never mis-decode.
func TestMalformedRejected(t *testing.T) {
	// Truncations of every sample frame at every byte boundary.
	for _, f := range sampleFrames() {
		typ, payload, _, err := ParseFrame(f)
		if err != nil {
			t.Fatalf("sample frame invalid: %v", err)
		}
		for cut := 0; cut < len(f); cut++ {
			if _, _, _, err := ParseFrame(f[:cut]); err == nil {
				t.Fatalf("%v truncated to %d bytes accepted by ParseFrame", typ, cut)
			}
		}
		// Truncations of the payload must fail the typed decoder. One
		// exception: Hello/Welcome cut back to the bare 4-byte magic is
		// the valid legacy form (flags/instance are optional trailing
		// fields).
		for cut := 0; cut < len(payload); cut++ {
			if (typ == FrameHello || typ == FrameWelcome) && cut == 4 {
				continue
			}
			if err := decodeAny(typ, payload[:cut]); err == nil {
				t.Fatalf("%v payload truncated to %d bytes accepted", typ, cut)
			}
		}
		// Trailing garbage must be rejected too. Welcome and Diffs grew
		// optional trailing extensions (the flags byte; the phase
		// trailer), so for them the garbage must exceed what the
		// extension could absorb.
		garbage := []byte{0xFF}
		switch typ {
		case FrameWelcome:
			garbage = []byte{0xFF, 0xFF} // flags byte + one extra
		case FrameDiffs:
			garbage = bytes.Repeat([]byte{0x01}, 5) // 4 phase uvarints + one extra
		}
		if err := decodeAny(typ, append(append([]byte(nil), payload...), garbage...)); err == nil {
			t.Fatalf("%v payload with trailing bytes accepted", typ)
		}
	}

	// Header corruption.
	good := AppendGap(nil, Gap{SubID: 1, From: 2, To: 3})
	bad := append([]byte(nil), good...)
	bad[4] = 99 // version
	if _, _, _, err := ParseFrame(bad); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[5] = 200 // frame type
	if _, _, _, err := ParseFrame(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad type: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[0], bad[1], bad[2], bad[3] = 0xFF, 0xFF, 0xFF, 0x7F // enormous length
	if _, _, _, err := ParseFrame(bad); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("huge length: %v", err)
	}
	if _, _, _, err := ParseFrame([]byte{1, 0, 0, 0, 1, 1}); !errors.Is(err, ErrMalformed) {
		t.Fatal("length below minimum accepted")
	}

	// A count field larger than the remaining payload must be rejected
	// before allocation (here: a neighbors count of 2^40).
	p := []byte{26 /* reqID */, 20 /* query id 10 zigzag */, 1 /* live */}
	p = append(p, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) // uvarint 2^42-ish
	if _, _, _, _, err := DecodeResult(p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized count: %v", err)
	}

	// Bad magic in Hello.
	h := AppendHello(nil, 0)
	h[headerLen] ^= 0xFF
	_, payload, _, _ := ParseFrame(h)
	if _, err := DecodeHello(payload); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad magic: %v", err)
	}
}

// decodeAny dispatches a payload to the decoder of its frame type — shared
// by the truncation sweep and the fuzz target.
func decodeAny(t FrameType, p []byte) error {
	switch t {
	case FrameHello:
		_, err := DecodeHello(p)
		return err
	case FrameWelcome:
		_, _, err := DecodeWelcome(p)
		return err
	case FrameBootstrap:
		_, _, err := DecodeBootstrap(p)
		return err
	case FrameTick:
		_, _, err := DecodeTick(p)
		return err
	case FrameRegister:
		_, _, err := DecodeRegister(p)
		return err
	case FrameMoveQuery:
		_, _, _, err := DecodeMoveQuery(p)
		return err
	case FrameRemoveQuery:
		_, _, err := DecodeRemoveQuery(p)
		return err
	case FrameResultReq:
		_, _, err := DecodeResultReq(p)
		return err
	case FrameSubscribe:
		_, _, err := DecodeSubscribe(p)
		return err
	case FrameUnsubscribe:
		_, _, err := DecodeUnsubscribe(p)
		return err
	case FrameAck:
		_, _, err := DecodeAck(p)
		return err
	case FrameResult:
		_, _, _, _, err := DecodeResult(p)
		return err
	case FrameEvent:
		_, err := DecodeEvent(p)
		return err
	case FrameSnapshot:
		_, err := DecodeSnapshot(p)
		return err
	case FrameGap:
		_, err := DecodeGap(p)
		return err
	case FrameStatsReq:
		_, err := DecodeStatsReq(p)
		return err
	case FrameStats:
		_, _, err := DecodeStats(p)
		return err
	case FrameDiffs:
		_, _, _, err := DecodeDiffsPhases(p)
		return err
	case FrameReset:
		_, err := DecodeReset(p)
		return err
	case FrameTraceCtx:
		_, _, err := DecodeTraceCtx(p)
		return err
	case FrameTracesReq:
		_, _, err := DecodeTracesReq(p)
		return err
	case FrameTraces:
		_, _, err := DecodeTraces(p)
		return err
	default:
		return ErrMalformed
	}
}

// TestEncodeSteadyStateAllocs is the acceptance bar of the serving layer's
// hot path: encoding a result diff into a reused buffer allocates nothing.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	d := sampleDiff()
	buf := AppendEvent(nil, 1, 0, d) // warm the buffer
	var seq uint64
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendEvent(buf[:0], 1, seq, d)
		seq++
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendEvent allocates %.1f/op, want 0", allocs)
	}
}
