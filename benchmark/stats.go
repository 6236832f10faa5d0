package main

import "sort"

// The box is shared: other tenants' load arrives in stretches of seconds in
// which every tick runs 10 to 100 % slower, and the median over all ticks of
// a run moved 16 to 30 % between runs of the same code. A timing is therefore
// taken on the quiet eighth of the run: the samples are cut into blocks of
// blockTicks ticks, the blocks ranked by their median, and the eighth with
// the lowest medians pooled. A slow tick or three — a GC cycle, a burst of
// re-computations — do not move their block's median, so what the program
// itself does to one tick in ten or more stays in the pool and in its p90; a
// stretch of interference moves every median it covers, and goes.
const (
	blockTicks = 10
	quietShare = 8 // one block in quietShare is kept
)

// quietBlocks cuts xs into blocks of block samples and returns where the
// quietest of them start, at least one, and how long a block is. A tail that
// does not fill a block is left out; xs shorter than a block is one block.
func quietBlocks(xs []float64, block int) (starts []int, size int) {
	block = max(block, 1)
	if len(xs) < block {
		return []int{0}, len(xs)
	}
	type level struct {
		start int
		med   float64
	}
	var levels []level
	for at := 0; at+block <= len(xs); at += block {
		levels = append(levels, level{at, median(xs[at : at+block])})
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i].med < levels[j].med })
	starts = make([]int, max(len(levels)/quietShare, 1))
	for i := range starts {
		starts[i] = levels[i].start
	}
	return starts, block
}

// pool gathers the samples of xs in the blocks that start at starts.
func pool(xs []float64, starts []int, block int) []float64 {
	out := make([]float64, 0, len(starts)*block)
	for _, at := range starts {
		out = append(out, xs[at:at+block]...)
	}
	return out
}

// quiet returns the samples of the quiet blocks of xs.
func quiet(xs []float64, block int) []float64 {
	starts, size := quietBlocks(xs, block)
	return pool(xs, starts, size)
}

// regBlock returns how many of the registrations s timed fall to a block of
// blockTicks of its ticks, at least one.
func regBlock(s *samples) int {
	return max(blockTicks*len(s.regUs)/max(len(s.tickUs), 1), 1)
}

// quantile returns the q-quantile (nearest rank) of xs, 0 for none. It sorts
// a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle of xs, the mean of the middle two for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// measure is a metric's value and its unit.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
