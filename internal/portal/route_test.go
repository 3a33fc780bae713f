package portal

// Tuple routing for sharded extend and drop-out steps:
//
//   - TestRouteCapCoversNodeSearch: the seeded property behind routing —
//     every shard holding a row the unsharded node's cap search returns
//     is in the cap's route — over caps on shard cuts, at both poles and
//     across the RA 0/360 wrap; the same check fails once the route is
//     computed from a shrunken radius.
//   - TestIntersectShardsSentCounts: the drop-out vote against per-tuple
//     sent counts.
//   - TestRouteTuplesNoRadius: a tuple without search radius is routed
//     nowhere, so extend drops it and drop-out keeps it.
//   - TestRoutedStashesSkipIdleShards: shards routed no tuple are not
//     called, except one that runs an all-idle step on the empty set.

import (
	"math"
	"math/rand"
	"testing"

	"skyquery/internal/dataset"
	"skyquery/internal/registry"
	"skyquery/internal/sphere"
	"skyquery/internal/storage"
	"skyquery/internal/survey"
	"skyquery/internal/value"
	"skyquery/internal/xmatch"
)

// routeSky is an unsharded table and the shard each of its rows lives
// on when the same archive is partitioned.
type routeSky struct {
	table   *storage.Table
	shards  []registry.Shard
	shardOf []int // by table row
	level   int
	centres []sphere.Vec
}

// newRouteSky observes dense fields at both poles, across the RA 0/360
// wrap and in the paper's field, loads them as one table, and partitions
// the archive into n shards the way sharded federations do.
func newRouteSky(t testing.TB, n, level int) *routeSky {
	t.Helper()
	fields := []sphere.Cap{
		sphere.NewCap(0, 90, 40.0/3600),
		sphere.NewCap(0, -90, 40.0/3600),
		sphere.NewCap(0, 10, 40.0/3600),
		sphere.NewCap(185, -0.5, 40.0/3600),
	}
	a := &survey.Archive{Config: survey.Config{Name: "R", SigmaArcsec: 0.1, Completeness: 1, Seed: 7, SpatialLevel: level}}
	for i, region := range fields {
		f := survey.GenerateField(region, 1500, 0.3, int64(11+i))
		a.Obs = append(a.Obs, survey.Observe(f, a.Config).Obs...)
	}
	db, err := a.BuildDB()
	if err != nil {
		t.Fatal(err)
	}
	table, ok := db.Table(survey.TableName)
	if !ok {
		t.Fatal("no primary table")
	}
	// BuildDB loads rows in canonical order and Partition cuts that same
	// order, so part k owns the next len(part.Obs) table rows.
	sky := &routeSky{table: table, level: level}
	for k, part := range a.Partition(n) {
		sky.shards = append(sky.shards, registry.Shard{Index: k, Range: registry.ShardRange{Lo: part.Lo, Hi: part.Hi}})
		for range part.Archive.Obs {
			sky.shardOf = append(sky.shardOf, k)
		}
	}
	if len(sky.shardOf) != table.RowCount() {
		t.Fatalf("partition holds %d rows, table %d", len(sky.shardOf), table.RowCount())
	}
	for _, o := range a.SortedObs() {
		sky.centres = append(sky.centres, o.Pos)
	}
	return sky
}

// caps draws seeded search caps of cross-match size: around the rows on
// either side of every shard cut, around random rows, and exactly at the
// poles and on the RA 0/360 seam.
func (s *routeSky) caps(n int, seed int64) []sphere.Cap {
	rng := rand.New(rand.NewSource(seed))
	radius := func() float64 { return (0.2 + 6*rng.Float64()) / 3600 }
	jitter := func(v sphere.Vec) sphere.Vec {
		ra, dec := v.RaDec()
		return sphere.FromRaDec(ra+rng.NormFloat64()/3600/math.Max(math.Cos(dec*sphere.RadPerDeg), 1e-3), dec+rng.NormFloat64()/3600)
	}
	var cuts []int
	for r := 1; r < len(s.shardOf); r++ {
		if s.shardOf[r] != s.shardOf[r-1] {
			cuts = append(cuts, r-1, r)
		}
	}
	var out []sphere.Cap
	for len(out) < n {
		switch k := len(out) % 8; {
		case k < 4:
			out = append(out, sphere.CapAround(jitter(s.centres[cuts[rng.Intn(len(cuts))]]), radius()))
		case k < 6:
			out = append(out, sphere.CapAround(jitter(s.centres[rng.Intn(len(s.centres))]), radius()))
		case k == 6:
			out = append(out, sphere.NewCap(0, 90*float64(1-2*rng.Intn(2)), radius()))
		default:
			out = append(out, sphere.NewCap(360*float64(rng.Intn(2)), 10+(rng.Float64()-0.5)*40.0/3600, radius()))
		}
	}
	return out
}

// misses checks every cap: the shards holding rows the unsharded node's
// search returns must all be in route(cap). It returns the caps that
// break that, and how many caps had candidates on two or more shards.
func (s *routeSky) misses(t *testing.T, caps []sphere.Cap, route func(sphere.Cap) []int) (missed, spanning int) {
	t.Helper()
	sb := storage.SearchBatch{Rows: make([]int, 0, 64), Pos: make([]sphere.Vec, 0, 64)}
	for _, c := range caps {
		holds := map[int]bool{}
		if err := s.table.SearchCapBatch(c, &sb, func(rows []int, _ []sphere.Vec) bool {
			for _, r := range rows {
				holds[s.shardOf[r]] = true
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(holds) > 1 {
			spanning++
		}
		routed := map[int]bool{}
		for _, k := range route(c) {
			routed[s.shards[k].Index] = true
		}
		for k := range holds {
			if !routed[k] {
				missed++
				break
			}
		}
	}
	return missed, spanning
}

func TestRouteCapCoversNodeSearch(t *testing.T) {
	for _, level := range []int{storage.DefaultSpatialLevel, 20} {
		sky := newRouteSky(t, 8, level)
		caps := sky.caps(12000, int64(level))
		route := func(c sphere.Cap) []int { return routeCap(c, sky.shards, level, nil) }
		missed, spanning := sky.misses(t, caps, route)
		if missed != 0 {
			t.Errorf("level %d: %d of %d caps routed past a shard holding a candidate", level, missed, len(caps))
		}
		if spanning < 100 {
			t.Errorf("level %d: only %d caps have candidates on two shards; the caps do not exercise the cuts", level, spanning)
		}

		// The check has teeth: routing from a halved radius misses.
		shrunk := func(c sphere.Cap) []int {
			return routeCap(sphere.CapAround(c.Center, c.Radius/2), sky.shards, level, nil)
		}
		if missed, _ := sky.misses(t, caps, shrunk); missed == 0 {
			t.Errorf("level %d: a route from half the radius missed no shard; the property cannot fail", level)
		}
	}
}

// tupleSet builds ordinal-free incoming tuples from accumulators.
func tupleSet(accs ...xmatch.Accumulator) *dataset.DataSet {
	ds := dataset.New(xmatch.AccColumns()...)
	for _, acc := range accs {
		ds.Rows = append(ds.Rows, xmatch.AccToCells(acc))
	}
	return ds
}

// survivors is a drop-out shard output: the listed ordinals, tagged.
func survivors(ords ...int64) *dataset.DataSet {
	ds := withOrdinals(tupleSet())
	for _, o := range ords {
		row := append(xmatch.AccToCells(xmatch.Accumulator{}), value.Int(o))
		ds.Rows = append(ds.Rows, row)
	}
	return ds
}

func TestIntersectShardsSentCounts(t *testing.T) {
	pos := sphere.FromRaDec(185, -0.5)
	one := xmatch.Accumulator{}.Add(pos, 0.1)
	incoming := tupleSet(one, one, one, one)
	for _, tc := range []struct {
		name string
		outs []*dataset.DataSet
		sent []int
		want []int // surviving tuple positions
	}{
		{"sent nowhere survives", []*dataset.DataSet{survivors()}, []int{0, 0, 0, 0}, []int{0, 1, 2, 3}},
		{"vetoed by one of two", []*dataset.DataSet{survivors(0, 1), survivors(0)}, []int{2, 2, 0, 0}, []int{0, 2, 3}},
		{"vetoed by its only shard", []*dataset.DataSet{survivors(1, 3), survivors(2)}, []int{1, 1, 1, 1}, []int{1, 2, 3}},
		{"kept by every shard", []*dataset.DataSet{survivors(0, 1, 2, 3), survivors(0, 3)}, []int{2, 1, 1, 2}, []int{0, 1, 2, 3}},
	} {
		got, err := intersectShards(incoming, tc.outs, tc.sent)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(got.Rows) != len(tc.want) {
			t.Errorf("%s: %d survivors, want %v", tc.name, len(got.Rows), tc.want)
			continue
		}
		for j, i := range tc.want {
			if &got.Rows[j][0] != &incoming.Rows[i][0] {
				t.Errorf("%s: survivor %d is not incoming tuple %d", tc.name, j, i)
			}
		}
	}
	for _, bad := range []*dataset.DataSet{survivors(1, 1), survivors(2, 0), survivors(4)} {
		if _, err := intersectShards(incoming, []*dataset.DataSet{bad}, []int{1, 1, 1, 1}); err == nil {
			t.Errorf("a shard output repeating, reordering or inventing ordinals was accepted")
		}
	}
}

func TestRouteTuplesNoRadius(t *testing.T) {
	sky := newRouteSky(t, 8, storage.DefaultSpatialLevel)
	pos := sky.centres[len(sky.centres)/2]
	live := xmatch.Accumulator{}.Add(pos, 0.1)
	spent := live
	spent.Chi2 = 100 // χ² beyond any threshold: no search radius
	incoming := tupleSet(spent, live)
	routes, sent, err := routeTuples(incoming, sky.shards, sky.level, 3.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if sent[0] != 0 || sent[1] == 0 {
		t.Fatalf("sent = %v, want the spent tuple nowhere and the live one somewhere", sent)
	}
	// Routed nowhere, the spent tuple reaches no shard, so no extend
	// output can carry it; every shard the live tuple reached keeps it.
	var outs []*dataset.DataSet
	for _, rows := range routes {
		for _, i := range rows {
			if i == 0 {
				t.Fatalf("the spent tuple was routed: %v", routes)
			}
		}
		if len(rows) > 0 {
			outs = append(outs, survivors(1))
		}
	}
	kept, err := intersectShards(incoming, outs, sent)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept.Rows) != 2 {
		t.Errorf("drop-out kept %d tuples, want both (the spent one was never vetoed)", len(kept.Rows))
	}
}

func TestRoutedStashesSkipIdleShards(t *testing.T) {
	one := xmatch.Accumulator{}.Add(sphere.FromRaDec(185, -0.5), 0.1)
	tagged := withOrdinals(tupleSet(one, one, one))
	shards := []registry.Shard{{Index: 2}, {Index: 3}, {Index: 5}}

	keep, stashes := routedStashes(tagged, shards, [][]int{{0, 2}, nil, {2}})
	if len(keep) != 2 || keep[0].Index != 2 || keep[1].Index != 5 {
		t.Fatalf("called shards %+v, want 2 and 5", keep)
	}
	if stashes[0].NumRows() != 2 || stashes[1].NumRows() != 1 || &stashes[1].Rows[0][0] != &tagged.Rows[2][0] {
		t.Errorf("stashes hold %d and %d rows, want tuples {0,2} and {2}", stashes[0].NumRows(), stashes[1].NumRows())
	}

	keep, stashes = routedStashes(tagged, shards, [][]int{nil, nil, nil})
	if len(keep) != 1 || keep[0].Index != 2 || stashes[0].NumRows() != 0 || !stashes[0].SchemaEqual(tagged) {
		t.Errorf("an all-idle step called %+v with %d rows, want shard 2 with the empty set", keep, stashes[0].NumRows())
	}
}

// BenchmarkRouteTuples times routing one step's incoming tuples over 8
// shards: the portal-side cost tuple routing adds per step.
func BenchmarkRouteTuples(b *testing.B) {
	sky := newRouteSky(b, 8, storage.DefaultSpatialLevel)
	var accs []xmatch.Accumulator
	for _, v := range sky.centres[:1000] {
		accs = append(accs, xmatch.Accumulator{}.Add(v, 0.1))
	}
	incoming := tupleSet(accs...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := routeTuples(incoming, sky.shards, sky.level, 3.5, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}
