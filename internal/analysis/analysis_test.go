package analysis

import (
	"math"
	"math/rand"
	"testing"

	"cpm/internal/core"
	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/shard"
)

func defaultModel() Model {
	return Model{N: 100_000, NumQ: 5_000, K: 16, Delta: 1.0 / 128, FObj: 0.5, FQry: 0.3}
}

func TestValidate(t *testing.T) {
	if err := defaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Model{
		{N: 0, NumQ: 1, K: 1, Delta: 0.1},
		{N: 10, NumQ: 1, K: 0, Delta: 0.1},
		{N: 10, NumQ: 1, K: 1, Delta: 0},
		{N: 10, NumQ: 1, K: 1, Delta: 2},
		{N: 10, NumQ: 1, K: 1, Delta: 0.1, FObj: 1.5},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %+v accepted", m)
		}
	}
}

func TestBestDistFormula(t *testing.T) {
	m := defaultModel()
	want := math.Sqrt(16 / (math.Pi * 100_000))
	if got := m.BestDist(); math.Abs(got-want) > 1e-15 {
		t.Errorf("BestDist = %v, want %v", got, want)
	}
}

// TestBestDistMatchesUniformData: the estimate should land within ~25% of
// the measured mean k-NN distance on actual uniform data.
func TestBestDistMatchesUniformData(t *testing.T) {
	const n, k = 20_000, 16
	rng := rand.New(rand.NewSource(1))
	e := shard.NewUnit(1, 64, core.Options{})
	objs := make(map[model.ObjectID]geom.Point, n)
	for i := 0; i < n; i++ {
		objs[model.ObjectID(i)] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	e.Bootstrap(objs)
	sum := 0.0
	const trials = 200
	for i := 0; i < trials; i++ {
		// Keep queries off the border where the uniform-disk argument
		// breaks down.
		q := geom.Point{X: 0.2 + 0.6*rng.Float64(), Y: 0.2 + 0.6*rng.Float64()}
		if err := e.RegisterQuery(model.QueryID(i), q, k); err != nil {
			t.Fatal(err)
		}
		sum += e.BestDist(model.QueryID(i))
		e.RemoveQuery(model.QueryID(i))
	}
	measured := sum / trials
	est := Model{N: n, NumQ: 1, K: k, Delta: 1.0 / 64}.BestDist()
	if ratio := measured / est; ratio < 0.75 || ratio > 1.3 {
		t.Errorf("measured best_dist %v vs estimate %v (ratio %v)", measured, est, ratio)
	}
}

// TestCInfCSHMatchMeasurement validates the influence-region and
// visit/heap size estimates against the live engine on uniform data.
func TestCInfCSHMatchMeasurement(t *testing.T) {
	const n, k = 20_000, 16
	for _, gridSize := range []int{32, 64, 128} {
		rng := rand.New(rand.NewSource(7))
		e := shard.NewUnit(1, gridSize, core.Options{})
		objs := make(map[model.ObjectID]geom.Point, n)
		for i := 0; i < n; i++ {
			objs[model.ObjectID(i)] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		}
		e.Bootstrap(objs)
		mdl := Model{N: n, NumQ: 1, K: k, Delta: 1.0 / float64(gridSize)}
		sumAcc := 0.0
		const trials = 100
		accBase := e.Stats().CellAccesses
		for i := 0; i < trials; i++ {
			q := geom.Point{X: 0.2 + 0.6*rng.Float64(), Y: 0.2 + 0.6*rng.Float64()}
			if err := e.RegisterQuery(model.QueryID(i), q, k); err != nil {
				t.Fatal(err)
			}
			e.RemoveQuery(model.QueryID(i))
		}
		sumAcc = float64(e.Stats().CellAccesses - accBase)
		measuredCells := sumAcc / trials
		// The search visits the influence region; C_inf estimates its
		// cell count. Allow a factor-two band: the ceiling term is crude
		// for small best_dist/δ.
		est := mdl.CInf()
		if ratio := measuredCells / est; ratio < 0.3 || ratio > 2.5 {
			t.Errorf("grid %d: measured cells/search %v vs C_inf %v (ratio %v)",
				gridSize, measuredCells, est, ratio)
		}
	}
}

func TestMonotonicityInDelta(t *testing.T) {
	// Coarse versus fine grid (Figure 4.1's trade-off): a fine grid has
	// more influence cells but far fewer objects in them; O_inf tends to
	// its minimum k as δ→0 but never falls below it.
	coarse := defaultModel()
	coarse.Delta = 1.0 / 8
	fine := defaultModel()
	fine.Delta = 1.0 / 512
	if fine.CInf() <= coarse.CInf() {
		t.Error("C_inf did not grow with finer grid")
	}
	if fine.CSH() <= coarse.CSH() {
		t.Error("C_SH did not grow with finer grid")
	}
	if fine.OInf() >= coarse.OInf() {
		t.Error("O_inf did not shrink with finer grid")
	}
	if fine.OInf() < float64(fine.K) {
		t.Errorf("O_inf %v fell below its minimum k=%d", fine.OInf(), fine.K)
	}
}

func TestSpaceComposition(t *testing.T) {
	m := defaultModel()
	if m.SpaceTotal() != m.SpaceGrid()+m.SpaceQueryTable() {
		t.Error("SpaceTotal is not the sum of its parts")
	}
	if m.SpaceGrid() <= 3*float64(m.N) {
		t.Error("SpaceGrid missing influence-list term")
	}
	// More queries cost linearly more.
	m2 := m
	m2.NumQ = 2 * m.NumQ
	if math.Abs(m2.SpaceQueryTable()-2*m.SpaceQueryTable()) > 1e-6 {
		t.Error("SpaceQueryTable not linear in n")
	}
}

func TestTimeComposition(t *testing.T) {
	m := defaultModel()
	if m.TimeIndex() != 2*float64(m.N)*m.FObj {
		t.Error("TimeIndex formula wrong")
	}
	if m.TimeTotal() <= m.TimeIndex() {
		t.Error("TimeTotal missing query terms")
	}
	// Time grows with query agility: moving queries are costlier than
	// static maintenance.
	agile := m
	agile.FQry = 0.9
	if agile.TimeTotal() <= m.TimeTotal() {
		t.Error("TimeTotal did not grow with query agility")
	}
	// k=1 queries avoid a zero log factor.
	one := m
	one.K = 1
	if one.TimeStaticQuery() <= 0 {
		t.Error("TimeStaticQuery degenerate at k=1")
	}
}
