package wire

import (
	"bytes"
	"errors"
	"testing"

	"cpm/internal/model"
)

// TestTraceFrames round-trips the tracing-extension frames.
func TestTraceFrames(t *testing.T) {
	ft, p, rest, err := ParseFrame(AppendTraceCtx(nil, 0xabc, 0xdef))
	if err != nil || ft != FrameTraceCtx || len(rest) != 0 {
		t.Fatalf("tracectx parse = (%v, %v)", ft, err)
	}
	tid, sid, err := DecodeTraceCtx(p)
	if err != nil || tid != 0xabc || sid != 0xdef {
		t.Fatalf("tracectx = (%x, %x, %v), want (abc, def, nil)", tid, sid, err)
	}
	// A zero trace id means "no trace" and must never appear on the wire.
	_, zp, _, _ := ParseFrame(AppendTraceCtx(nil, 0, 5))
	if _, _, err := DecodeTraceCtx(zp); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero trace id = %v, want ErrMalformed", err)
	}

	ft, p, _, err = ParseFrame(AppendTracesReq(nil, 42, 0x99))
	if err != nil || ft != FrameTracesReq {
		t.Fatalf("tracesreq parse = (%v, %v)", ft, err)
	}
	req, tid, err := DecodeTracesReq(p)
	if err != nil || req != 42 || tid != 0x99 {
		t.Fatalf("tracesreq = (%d, %x, %v)", req, tid, err)
	}

	doc := []byte(`[{"trace_id":"0000000000000abc"}]`)
	ft, p, _, err = ParseFrame(AppendTraces(nil, 42, doc))
	if err != nil || ft != FrameTraces {
		t.Fatalf("traces parse = (%v, %v)", ft, err)
	}
	req, got, err := DecodeTraces(p)
	if err != nil || req != 42 || !bytes.Equal(got, doc) {
		t.Fatalf("traces = (%d, %q, %v)", req, got, err)
	}
	if _, _, err := DecodeTraces(p[:len(p)-1]); err == nil {
		t.Fatal("truncated traces doc decoded")
	}
}

// TestWelcomeFlags checks the version-negotiated Welcome flags byte: the
// extended form round-trips, and the plain form (what an old server
// sends) still decodes with zero flags.
func TestWelcomeFlags(t *testing.T) {
	_, p, _, err := ParseFrame(AppendWelcomeFlags(nil, 7, WelcomeTrace))
	if err != nil {
		t.Fatal(err)
	}
	inst, flags, err := DecodeWelcome(p)
	if err != nil || inst != 7 || flags != WelcomeTrace {
		t.Fatalf("welcome+flags = (%d, %#x, %v), want (7, %#x, nil)", inst, flags, err, WelcomeTrace)
	}
	_, p, _, _ = ParseFrame(AppendWelcome(nil, 7))
	inst, flags, err = DecodeWelcome(p)
	if err != nil || inst != 7 || flags != 0 {
		t.Fatalf("plain welcome = (%d, %#x, %v), want (7, 0, nil)", inst, flags, err)
	}
}

// TestDiffsPhaseTrailer checks the tick-phase trailer on Diffs frames:
// the extended form carries the four phase nanos, DecodeDiffsPhases reads
// either form, and a trailer cut short is an error.
func TestDiffsPhaseTrailer(t *testing.T) {
	diffs := []model.ResultDiff{{Query: 3, Kind: model.DiffUpdate,
		Entered: []model.Neighbor{{ID: 9, Dist: 0.5}},
		Result:  []model.Neighbor{{ID: 9, Dist: 0.5}}}}
	ph := model.PhaseNanos{Relocate: 100, Reeval: 200, QueryUpd: 30, Diff: 4}

	_, p, _, err := ParseFrame(AppendDiffsPhases(nil, 11, diffs, ph))
	if err != nil {
		t.Fatal(err)
	}
	req, got, gotPh, err := DecodeDiffsPhases(p)
	if err != nil || req != 11 || len(got) != 1 || gotPh != ph {
		t.Fatalf("diffs+phases = (%d, %v, %+v, %v)", req, got, gotPh, err)
	}

	// Plain frame through the phase-aware decoder: zero phases.
	_, p, _, _ = ParseFrame(AppendDiffs(nil, 11, diffs))
	req, got, gotPh, err = DecodeDiffsPhases(p)
	if err != nil || req != 11 || len(got) != 1 || gotPh != (model.PhaseNanos{}) {
		t.Fatalf("plain diffs via phases decoder = (%d, %v, %+v, %v)", req, got, gotPh, err)
	}

	// A truncated trailer must error, not decode to garbage.
	full := AppendDiffsPhases(nil, 11, diffs, model.PhaseNanos{Relocate: 1 << 40})
	_, p, _, _ = ParseFrame(full)
	if _, _, _, err := DecodeDiffsPhases(p[:len(p)-2]); err == nil {
		t.Fatal("truncated phase trailer decoded")
	}
}
