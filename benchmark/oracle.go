package main

import (
	"fmt"
	"math"
	"sort"

	"cpm"
)

// The oracle: brute force over the benchmark's own mirror of object
// positions. It shares no code with the system under test — no grid, no
// internal/bruteforce — so a bug in either shows as a difference.

func dist(p, q cpm.Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// before orders neighbours by distance, ties by lower id.
func before(a, b cpm.Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// answer returns the exact result of query d over the mirror's live objects.
func answer(m *mirror, d qdef) []cpm.Neighbor {
	var best []cpm.Neighbor
	for id, p := range m.pos {
		if !m.alive[id] {
			continue
		}
		n := cpm.Neighbor{ID: cpm.ObjectID(id)}
		for _, q := range d.pts {
			n.Dist += dist(p, q) // one point, or the sum over an aggregate's three
		}
		switch d.kind {
		case kindRange:
			if n.Dist <= d.radius {
				best = append(best, n)
			}
			continue
		case kindConstrained:
			if p.X < d.region.Lo.X || p.X > d.region.Hi.X || p.Y < d.region.Lo.Y || p.Y > d.region.Hi.Y {
				continue
			}
		}
		if len(best) == d.k && !before(n, best[d.k-1]) {
			continue
		}
		at := sort.Search(len(best), func(i int) bool { return before(n, best[i]) })
		if len(best) < d.k {
			best = append(best, cpm.Neighbor{})
		}
		copy(best[at+1:], best[at:])
		best[at] = n
	}
	if d.kind == kindRange {
		sort.Slice(best, func(i, j int) bool { return before(best[i], best[j]) })
	}
	return best
}

// differs explains how got departs from want: every distance must be
// within 1e-9 and the id sequence equal, ties going to the lower id. It
// returns "" when they agree. One departure is not an error but is told
// apart (tie): objects at exactly the cut-off distance — two objects on one
// street corner, both k-th nearest — where the program keeps whichever it
// met first. ROADMAP item 4(c) wants that made a contract; until then the
// benchmark counts such answers and lets them pass.
func differs(got, want []cpm.Neighbor) (diff string, tie bool) {
	if len(got) != len(want) {
		return fmt.Sprintf("%d neighbours, want %d", len(got), len(want)), false
	}
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			return fmt.Sprintf("neighbour %d is %v, want %v", i, got[i], want[i]), false
		}
		if got[i].ID != want[i].ID {
			if want[len(want)-1].Dist-want[i].Dist > 1e-9 {
				return fmt.Sprintf("neighbour %d is %v, want %v", i, got[i], want[i]), false
			}
			tie = true
		}
	}
	return "", tie
}
