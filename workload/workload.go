// Package workload exposes the repository's Brinkhoff-style moving-object
// workload generator (objects and queries traveling shortest paths over a
// synthetic road network) for use outside the benchmark harness: examples,
// demos and downstream evaluations of the cpm package.
//
// A workload is deterministic in its options: the same City and Params
// yield the identical update stream, so experiments are repeatable and
// methods comparable.
package workload

import (
	"cpm/internal/generator"
	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/network"
)

// Point is the workspace coordinate type; identical to cpm.Point (both
// alias the same underlying type, so values flow between the packages
// without conversion).
type Point = geom.Point

// Batch is one timestamp's updates; identical to cpm.Batch.
type Batch = model.Batch

// ObjectID identifies a moving object; identical to cpm.ObjectID.
type ObjectID = model.ObjectID

// Speed is a paper speed class: the network distance covered per timestamp.
type Speed = generator.Speed

// The speed classes of the paper's Table 6.1: slow covers 1/250 of the
// summed workspace extents per timestamp; medium and fast are 5× and 25×
// that.
const (
	Slow   = generator.Slow
	Medium = generator.Medium
	Fast   = generator.Fast
)

// CityOptions configure the synthetic road network. The zero value yields
// a 32×32-intersection city; at most 4096 intersections are accepted,
// since a workload keeps a next-hop table over every pair of them.
type CityOptions = network.GenOptions

// Params configure the moving-object stream: population, query count,
// speed classes, agilities and seed.
type Params = generator.Params

// DefaultParams returns the paper's Table 6.1 defaults scaled by scale
// (1.0 = N=100K objects, n=5K queries).
func DefaultParams(scale float64) Params { return generator.Defaults(scale) }

// Workload produces one update batch per timestamp over a generated city.
type Workload struct {
	w *generator.Workload
}

// New generates a city and a workload over it.
func New(city CityOptions, params Params) (*Workload, error) {
	g, err := network.Generate(city)
	if err != nil {
		return nil, err
	}
	w, err := generator.New(g, params)
	if err != nil {
		return nil, err
	}
	return &Workload{w: w}, nil
}

// InitialObjects spawns the population; feed the result to
// Monitor.Bootstrap. Call exactly once, before Advance.
func (w *Workload) InitialObjects() map[ObjectID]Point { return w.w.InitialObjects() }

// InitialQueries returns the starting location of query i at index i
// (register them under QueryID(i)).
func (w *Workload) InitialQueries() []Point { return w.w.InitialQueries() }

// Advance simulates one timestamp and returns its update batch.
func (w *Workload) Advance() Batch { return w.w.Advance() }

// ObjectCount returns the (constant) population size.
func (w *Workload) ObjectCount() int { return w.w.ObjectCount() }
