package trace

import (
	"bytes"
	"io"
	"testing"

	"cpm/internal/core"
	"cpm/internal/generator"
	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/network"
	"cpm/internal/shard"
)

func buildWorkload(t *testing.T, ts int) (Header, *generator.Workload) {
	t.Helper()
	netOpts := network.GenOptions{Width: 8, Height: 8, Seed: 4}
	net, err := network.Generate(netOpts)
	if err != nil {
		t.Fatal(err)
	}
	params := generator.Params{
		N: 150, NumQueries: 6,
		ObjectSpeed: generator.Fast, QuerySpeed: generator.Medium,
		ObjectAgility: 0.6, QueryAgility: 0.4, Seed: 5,
	}
	w, err := generator.New(net, params)
	if err != nil {
		t.Fatal(err)
	}
	hdr := Header{
		Params:     params,
		Net:        netOpts,
		Timestamps: ts,
		Objects:    w.InitialObjects(),
		Queries:    w.InitialQueries(),
	}
	return hdr, w
}

func TestRoundTrip(t *testing.T) {
	hdr, w := buildWorkload(t, 12)
	var buf bytes.Buffer
	updates, err := Record(&buf, hdr, w)
	if err != nil {
		t.Fatal(err)
	}
	if updates == 0 {
		t.Fatal("trace recorded no updates")
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Header()
	if got.Timestamps != 12 || len(got.Objects) != 150 || len(got.Queries) != 6 {
		t.Fatalf("header round trip: %+v", got)
	}
	count := 0
	readUpdates := 0
	for {
		b, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
		readUpdates += len(b.Objects) + len(b.Queries)
	}
	if count != 12 || readUpdates != updates {
		t.Fatalf("read %d batches / %d updates, want 12 / %d", count, readUpdates, updates)
	}
	// Reading past EOF keeps returning EOF.
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next = %v", err)
	}
}

// TestReplayEquivalence: replaying a recorded trace must leave a monitor in
// exactly the state a live run produces.
func TestReplayEquivalence(t *testing.T) {
	hdr, w := buildWorkload(t, 10)
	var buf bytes.Buffer

	// Live run, recording as we go.
	live := shard.NewUnit(1, 16, core.Options{})
	live.Bootstrap(cloneObjects(hdr.Objects))
	for i, q := range hdr.Queries {
		if err := live.RegisterQuery(model.QueryID(i), q, 4); err != nil {
			t.Fatal(err)
		}
	}
	tw, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hdr.Timestamps; i++ {
		b := w.Advance()
		if err := tw.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
		live.ProcessBatch(b)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay into a fresh monitor.
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := shard.NewUnit(1, 16, core.Options{})
	replayed.Bootstrap(cloneObjects(r.Header().Objects))
	for i, q := range r.Header().Queries {
		if err := replayed.RegisterQuery(model.QueryID(i), q, 4); err != nil {
			t.Fatal(err)
		}
	}
	cycles, err := Replay(r, replayed)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 10 {
		t.Fatalf("replayed %d cycles, want 10", cycles)
	}
	for i := range hdr.Queries {
		a := live.Result(model.QueryID(i))
		b := replayed.Result(model.QueryID(i))
		if len(a) != len(b) {
			t.Fatalf("q%d: result lengths differ", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("q%d rank %d: live %v, replayed %v", i, j, a[j], b[j])
			}
		}
	}
}

func cloneObjects(m map[model.ObjectID]geom.Point) map[model.ObjectID]geom.Point {
	out := make(map[model.ObjectID]geom.Point, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func TestWriterContract(t *testing.T) {
	hdr, w := buildWorkload(t, 2)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	// Closing early reports the missing batches.
	if err := tw.Close(); err == nil {
		t.Error("early Close accepted")
	}
	if err := tw.WriteBatch(w.Advance()); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteBatch(w.Advance()); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteBatch(w.Advance()); err == nil {
		t.Error("overlong trace accepted")
	}
	if err := tw.Close(); err != nil {
		t.Errorf("complete Close failed: %v", err)
	}
	// Negative timestamp headers rejected.
	if _, err := NewWriter(&buf, Header{Timestamps: -1}); err == nil {
		t.Error("negative timestamps accepted")
	}
}

func TestReaderCorruptInput(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage header accepted")
	}
	// Truncated stream: header fine, batches missing.
	hdr, _ := buildWorkload(t, 3)
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated trace Next = %v, want decode error", err)
	}
}
