package wire

import (
	"math/rand"
	"reflect"
	"testing"

	"cpm/internal/arena"
	"cpm/internal/geom"
	"cpm/internal/model"
)

// randomNeighbors draws n neighbors, nil for n == 0 (what a decoder returns
// for an empty list).
func randomNeighbors(rng *rand.Rand, n int) []model.Neighbor {
	if n == 0 {
		return nil
	}
	out := make([]model.Neighbor, n)
	for i := range out {
		out[i] = model.Neighbor{ID: model.ObjectID(rng.Int31() - 1<<30), Dist: rng.Float64()}
	}
	return out
}

// randomDiff draws a diff of any kind with up to 40 members per list, so
// a few hundred of them cross several arena chunks.
func randomDiff(rng *rand.Rand) model.ResultDiff {
	d := model.ResultDiff{
		Query:    model.QueryID(rng.Int31n(1000) - 10),
		Kind:     model.DiffKind(rng.Intn(int(model.DiffRemove) + 1)),
		Entered:  randomNeighbors(rng, rng.Intn(6)),
		Reranked: randomNeighbors(rng, rng.Intn(6)),
	}
	if n := rng.Intn(6); n > 0 {
		d.Exited = make([]model.ObjectID, n)
		for i := range d.Exited {
			d.Exited[i] = model.ObjectID(rng.Int31n(1 << 20))
		}
	}
	if d.Kind != model.DiffRemove {
		d.Result = randomNeighbors(rng, rng.Intn(41))
	}
	return d
}

// randomBatch draws an update batch of every update and query-update kind.
func randomBatch(rng *rand.Rand) model.Batch {
	pt := func() geom.Point { return geom.Point{X: rng.Float64(), Y: rng.Float64()} }
	var b model.Batch
	if n := rng.Intn(300); n > 0 {
		b.Objects = make([]model.Update, n)
		for i := range b.Objects {
			id := model.ObjectID(rng.Int31n(1 << 20))
			switch rng.Intn(3) {
			case 0:
				b.Objects[i] = model.MoveUpdate(id, pt(), pt())
			case 1:
				b.Objects[i] = model.InsertUpdate(id, pt())
			default:
				b.Objects[i] = model.DeleteUpdate(id, pt())
			}
		}
	}
	if n := rng.Intn(8); n > 0 {
		b.Queries = make([]model.QueryUpdate, n)
		for i := range b.Queries {
			qu := model.QueryUpdate{ID: model.QueryID(rng.Int31n(500)), Kind: model.QueryMove}
			if rng.Intn(4) == 0 {
				qu.Kind = model.QueryTerminate
			}
			for j := rng.Intn(3); j > 0; j-- {
				qu.NewPoints = append(qu.NewPoints, pt())
			}
			b.Queries[i] = qu
		}
	}
	return b
}

// payload strips the header off one encoded frame.
func payload(t *testing.T, frame []byte) []byte {
	t.Helper()
	_, p, rest, err := ParseFrame(frame)
	if err != nil || len(rest) != 0 {
		t.Fatalf("ParseFrame: %v (rest %d)", err, len(rest))
	}
	return p
}

// decoded is one frame decoded every way the hot path decodes it.
type decoded struct {
	ev    Event
	diffs []model.ResultDiff
	ph    model.PhaseNanos
	batch model.Batch
}

// arenaFrames encodes a long stream of the arena-decoded frame types and
// returns each frame's payload with its fresh (arena-less) decode.
func arenaFrames(t *testing.T, seed int64, n int) (payloads [][]byte, types []FrameType, fresh []decoded) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var frame []byte
		var typ FrameType
		switch i % 3 {
		case 0:
			frame, typ = AppendEvent(nil, uint32(i), uint64(i), randomDiff(rng)), FrameEvent
		case 1:
			ds := make([]model.ResultDiff, rng.Intn(12))
			for j := range ds {
				ds[j] = randomDiff(rng)
			}
			ph := model.PhaseNanos{Relocate: int64(i), Diff: 7}
			frame, typ = AppendDiffsPhases(nil, uint64(i), ds, ph), FrameDiffs
		default:
			frame, typ = AppendTick(nil, uint64(i), randomBatch(rng)), FrameTick
		}
		p := payload(t, frame)
		d, err := decodeArena(nil, typ, p)
		if err != nil {
			t.Fatalf("frame %d: fresh decode: %v", i, err)
		}
		payloads, types, fresh = append(payloads, p), append(types, typ), append(fresh, d)
	}
	return payloads, types, fresh
}

// decodeArena decodes one arena-decoded frame type through a (nil: exact
// allocation).
func decodeArena(a *Arena, typ FrameType, p []byte) (d decoded, err error) {
	switch typ {
	case FrameEvent:
		d.ev, err = a.DecodeEvent(p)
	case FrameDiffs:
		_, d.diffs, d.ph, err = a.DecodeDiffsPhases(p)
	case FrameTick:
		_, d.batch, err = a.DecodeTick(p)
	}
	return d, err
}

// loose names a slice of d with spare capacity — an append to it would
// write into the next frame's data — or returns "".
func (d decoded) loose() string {
	diffs := append([]model.ResultDiff{d.ev.Diff}, d.diffs...)
	for _, x := range diffs {
		switch {
		case cap(x.Entered) != len(x.Entered):
			return "Entered"
		case cap(x.Exited) != len(x.Exited):
			return "Exited"
		case cap(x.Reranked) != len(x.Reranked):
			return "Reranked"
		case cap(x.Result) != len(x.Result):
			return "Result"
		}
	}
	switch {
	case cap(d.diffs) != len(d.diffs):
		return "the diff list"
	case cap(d.batch.Objects) != len(d.batch.Objects):
		return "Objects"
	case cap(d.batch.Queries) != len(d.batch.Queries):
		return "Queries"
	}
	for _, qu := range d.batch.Queries {
		if cap(qu.NewPoints) != len(qu.NewPoints) {
			return "NewPoints"
		}
	}
	return ""
}

// TestArenaDecodeMatchesFresh decodes a long stream of Event, Diffs and
// Tick frames — many chunks' worth — through one reused arena. Every frame
// equals its fresh decode, every slice it carries has cap == len, and every
// frame held since still equals its fresh decode after the whole stream: a
// later decode never writes into the slices of an earlier one.
func TestArenaDecodeMatchesFresh(t *testing.T) {
	payloads, types, fresh := arenaFrames(t, 27, 900)
	var a Arena
	held := make([]decoded, len(payloads))
	for i, p := range payloads {
		d, err := decodeArena(&a, types[i], p)
		if err != nil {
			t.Fatalf("frame %d (%v): %v", i, types[i], err)
		}
		if !reflect.DeepEqual(d, fresh[i]) {
			t.Fatalf("frame %d (%v) through the arena:\ngot  %+v\nwant %+v", i, types[i], d, fresh[i])
		}
		if s := d.loose(); s != "" {
			t.Fatalf("frame %d (%v): %s has spare capacity", i, types[i], s)
		}
		held[i] = d
	}
	for i := range held {
		if !reflect.DeepEqual(held[i], fresh[i]) {
			t.Fatalf("held frame %d (%v) changed by later decodes:\ngot  %+v\nwant %+v", i, types[i], held[i], fresh[i])
		}
	}
}

// FuzzDiffsRoundTrip fuzzes the sync-diffs frame through a shared arena
// (run with `go test -fuzz=FuzzDiffsRoundTrip ./internal/wire`): the
// fuzzer picks the diffs (by seed), the trailer and how full the arena's
// chunks already are, so decodes straddle chunk boundaries at every
// offset. Each of several decodes through the one arena must equal the
// fresh decode of the frame, which must equal what was encoded, and stay
// equal while the later decodes run.
func FuzzDiffsRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(0), true)
	f.Add(int64(7), uint8(40), uint16(4090), false)
	f.Add(int64(-3), uint8(0), uint16(1), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, pre uint16, phases bool) {
		rng := rand.New(rand.NewSource(seed))
		diffs := make([]model.ResultDiff, int(n)%64)
		for i := range diffs {
			diffs[i] = randomDiff(rng)
		}
		var frame []byte
		var ph model.PhaseNanos
		if phases {
			ph = model.PhaseNanos{Relocate: rng.Int63(), Reeval: rng.Int63(), QueryUpd: 1, Diff: 0}
			frame = AppendDiffsPhases(nil, uint64(seed), diffs, ph)
		} else {
			frame = AppendDiffs(nil, uint64(seed), diffs)
		}
		p := payload(t, frame)
		req, want, wantPh, err := DecodeDiffsPhases(p)
		if err != nil || req != uint64(seed) || wantPh != ph {
			t.Fatalf("fresh decode = (%d, %+v, %v)", req, wantPh, err)
		}
		if len(diffs) == 0 {
			diffs = nil
		}
		if !reflect.DeepEqual(want, diffs) {
			t.Fatalf("fresh decode differs from the encoded diffs:\ngot  %+v\nwant %+v", want, diffs)
		}

		var a Arena
		skip := int(pre) % arena.Chunk
		a.nbrs.Make(skip)
		a.ids.Make(skip)
		a.diffs.Make(skip)
		var held [][]model.ResultDiff
		for round := 0; round < 4; round++ {
			_, got, _, err := a.DecodeDiffsPhases(p)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d through the arena:\ngot  %+v\nwant %+v", round, got, want)
			}
			held = append(held, got)
		}
		for round, got := range held {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d changed by later decodes", round)
			}
		}
	})
}
