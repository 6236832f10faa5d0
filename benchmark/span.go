package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Times are nanoseconds since the recorder
// was made.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the span that caused this one, -1 for none
	Tick   int32  `json:"tick"`   // the measured tick it belongs to, -1 outside of one
}

// recorder keeps spans in memory until the run ends. The served stack's
// workers record from their own goroutines, hence the lock.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	tick  atomic.Int32 // the tick that new spans belong to
	// The decorators of the served stack find their parents here: the
	// driver's round trip causes the coordinator's call, which causes the
	// workers' calls. Ticks are serial, so one slot each is enough.
	root, coord atomic.Int32
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.tick.Store(-1)
	r.root.Store(-1)
	r.coord.Store(-1)
	return r
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent int32) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	// The clock is read under the lock, so waiting for the lock is not
	// counted as the layer's time.
	r.spans = append(r.spans, span{Name: name, Start: r.since(time.Now()), Parent: parent, Tick: r.tick.Load()})
	return int32(len(r.spans) - 1)
}

// end closes span id and returns its end time.
func (r *recorder) end(id int32) int64 {
	end := r.since(time.Now())
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
	return end
}

// add records a span whose times are already known.
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perTick sums f over the spans called name within each measured tick and
// returns the sums by tick, in microseconds.
func perTick(spans []span, name string, f func(i int) int64) map[int32]float64 {
	byTick := make(map[int32]float64)
	for i, s := range spans {
		if s.Name == name && s.Tick >= 0 {
			byTick[s.Tick] += float64(f(i)) / 1e3
		}
	}
	return byTick
}
