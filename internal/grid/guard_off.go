//go:build !race && !cpmassert

package grid

// Release build: the epoch-guard, index and occupancy assertions compile to
// empty inlined methods, so the guarded accessors cost nothing on the hot
// path.

// guardEnabled reports whether the epoch-guard assertions are compiled in.
const guardEnabled = false

func (g *Grid) assertStable()                  {}
func (g *Grid) assertWritable()                {}
func (g *Grid) assertIndex()                   {}
func (x *Influence) assertOccupancy(CellIndex) {}
