package wire

import (
	"testing"

	"cpm/internal/model"
)

// benchDiff is a realistic steady-state diff: k=8 result, a couple of
// entries and exits, a few re-ranks — the shape the default workload
// produces for a changed query.
func benchDiff() model.ResultDiff {
	res := make([]model.Neighbor, 8)
	for i := range res {
		res[i] = model.Neighbor{ID: model.ObjectID(100 + i), Dist: 0.01 * float64(i+1)}
	}
	return model.ResultDiff{
		Query:    321,
		Kind:     model.DiffUpdate,
		Entered:  res[:2],
		Exited:   []model.ObjectID{55, 89},
		Reranked: res[2:5],
		Result:   res,
	}
}

// BenchmarkWireEncode measures the serving layer's hot path: encoding one
// pushed diff event into a reused buffer. Must report 0 allocs/op.
func BenchmarkWireEncode(b *testing.B) {
	d := benchDiff()
	buf := AppendEvent(nil, 1, 0, d)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEvent(buf[:0], 1, uint64(i), d)
	}
}

// BenchmarkWireDecode measures parsing + decoding the same event frame.
func BenchmarkWireDecode(b *testing.B) {
	frame := AppendEvent(nil, 1, 42, benchDiff())
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, payload, _, err := ParseFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeEvent(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodeTick measures batch ingest encoding: a 512-update
// move batch into a reused buffer (also 0 allocs/op).
func BenchmarkWireEncodeTick(b *testing.B) {
	batch := model.Batch{Objects: make([]model.Update, 512)}
	for i := range batch.Objects {
		batch.Objects[i] = model.MoveUpdate(model.ObjectID(i),
			model.Update{}.Old, model.Update{}.New)
	}
	buf := AppendTick(nil, 0, batch)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendTick(buf[:0], uint64(i), batch)
	}
}

// BenchmarkWireDecodeArena decodes the same event frame through one arena,
// as a client read loop does: a fresh chunk every few hundred events
// instead of a slice per list per event.
func BenchmarkWireDecodeArena(b *testing.B) {
	frame := AppendEvent(nil, 1, 42, benchDiff())
	var a Arena
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, payload, _, err := ParseFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.DecodeEvent(payload); err != nil {
			b.Fatal(err)
		}
	}
}
