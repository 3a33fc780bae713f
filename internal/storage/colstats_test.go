package storage

import (
	"math"
	"reflect"
	"testing"

	"skyquery/internal/htm"
	"skyquery/internal/sphere"
	"skyquery/internal/stats"
	"skyquery/internal/value"
)

// bruteSummary recomputes the exact row, NULL and min/max figures of one
// column by reading every cell.
func bruteSummary(t *testing.T, tab *Table, ci int) (rows, nulls int64, lo, hi float64, slo, shi string) {
	t.Helper()
	lo, hi = math.Inf(1), math.Inf(-1)
	first := true
	for r := 0; r < tab.RowCount(); r++ {
		v := tab.Value(r, ci)
		rows++
		if v.IsNull() {
			nulls++
			continue
		}
		if v.Type() == value.StringType {
			s := v.AsString()
			if first || s < slo {
				slo = s
			}
			if first || s > shi {
				shi = s
			}
			first = false
			continue
		}
		if f, ok := v.AsFloat(); ok {
			lo, hi = math.Min(lo, f), math.Max(hi, f)
		}
	}
	return rows, nulls, lo, hi, slo, shi
}

// checkSummaries holds a ColumnStats answer to the brute-force figures.
func checkSummaries(t *testing.T, tab *Table, got []*stats.ColSummary) {
	t.Helper()
	if len(got) != len(tab.Schema()) {
		t.Fatalf("%d summaries for %d columns", len(got), len(tab.Schema()))
	}
	for ci, c := range tab.Schema() {
		rows, nulls, lo, hi, slo, shi := bruteSummary(t, tab, ci)
		cs := got[ci]
		if cs.Rows != rows || cs.Nulls != nulls {
			t.Errorf("%s: rows/nulls = %d/%d, want %d/%d", c.Name, cs.Rows, cs.Nulls, rows, nulls)
		}
		switch c.Type {
		case value.IntType, value.FloatType:
			if cs.Kind != stats.KindNumeric || cs.Min != lo || cs.Max != hi {
				t.Errorf("%s: kind %v range [%v, %v], want numeric [%v, %v]", c.Name, cs.Kind, cs.Min, cs.Max, lo, hi)
			}
		case value.StringType:
			if cs.Kind != stats.KindString || cs.StrMin != slo || cs.StrMax != shi {
				t.Errorf("%s: kind %v range [%q, %q], want string [%q, %q]", c.Name, cs.Kind, cs.StrMin, cs.StrMax, slo, shi)
			}
		}
	}
}

// TestColumnStatsInMemory checks the planner's statistics surface on a
// plain in-memory table against a full read, the cache at an unchanged
// row count, and invalidation by an append.
func TestColumnStatsInMemory(t *testing.T) {
	tab, err := NewTable("obj", objSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillObjects(t, tab, 700, 5)
	got := tab.ColumnStats()
	checkSummaries(t, tab, got)
	// object_id is 0..699, all distinct: the sketch estimate must be close.
	if d := got[0].Distinct; d < 630 || d > 770 {
		t.Errorf("object_id distinct estimate %v, want ~700", d)
	}
	// Types are GALAXY/STAR only.
	if d := got[4].Distinct; d != 2 {
		t.Errorf("type distinct estimate %v, want 2", d)
	}

	again := tab.ColumnStats()
	for i := range got {
		if again[i] != got[i] {
			t.Fatalf("column %d: unchanged table rebuilt its summaries", i)
		}
	}

	if err := tab.Append(value.Int(5000), value.Float(1), value.Float(2), value.Float(1e6), value.Null, value.Bool(true)); err != nil {
		t.Fatal(err)
	}
	after := tab.ColumnStats()
	checkSummaries(t, tab, after)
	if after[3].Max != 1e6 || after[4].Nulls != 1 {
		t.Errorf("append not folded in: flux max %v, type nulls %d", after[3].Max, after[4].Nulls)
	}
}

// TestColumnStatsDiskBacked checks the persisted path: the sealed
// prefix's footer statistics extended over the in-memory tail must
// describe every row, before and after a reopen, exactly as a full read
// of the recovered table does — and identically to the all-in-RAM twin.
func TestColumnStatsDiskBacked(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{HotBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := st.Create("obj", storeSchema(), &storeSpatial)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2500
	fillStoreTable(t, tbl, 0, n)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	disk := tbl.ColumnStats()
	checkSummaries(t, tbl, disk)
	ram := ramTwin(t, n).ColumnStats()
	if !reflect.DeepEqual(disk, ram) {
		t.Errorf("disk-backed statistics differ from the in-RAM twin's")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir, StoreOptions{HotBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	tbl2, ok := st2.DB().Table("obj")
	if !ok {
		t.Fatal("table missing after reopen")
	}
	reopened := tbl2.ColumnStats()
	checkSummaries(t, tbl2, reopened)
	if !reflect.DeepEqual(reopened, disk) {
		t.Errorf("statistics changed across a reopen")
	}
}

// TestCountRegionCandidates holds the index-only candidate count to a
// brute-force oracle: the rows whose leaf trixel lies in the cover of
// the region's bounding cap. It must also bound the rows a search of the
// same region returns, follow appends (dirty index), and refuse tables
// without a spatial index.
func TestCountRegionCandidates(t *testing.T) {
	tab, err := NewTable("obj", objSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CountRegionCandidates(sphere.NewCap(0, 0, 1)); err == nil {
		t.Fatal("count on a table without a spatial index succeeded")
	}
	fillObjects(t, tab, 4000, 17)
	if err := tab.EnableSpatial(SpatialConfig{RACol: "ra", DecCol: "dec"}); err != nil {
		t.Fatal(err)
	}
	oracle := func(c sphere.Cap) int {
		cov := htm.CoverCap(c, htm.LevelForRadius(c.Radius), tab.SpatialLevel()).Ranges()
		count := 0
		for r := 0; r < tab.RowCount(); r++ {
			pos, err := tab.Position(r)
			if err != nil {
				t.Fatal(err)
			}
			id := htm.Lookup(pos, tab.SpatialLevel())
			for _, rg := range cov {
				if rg.Contains(id) {
					count++
					break
				}
			}
		}
		return count
	}
	for _, c := range []sphere.Cap{sphere.NewCap(10, 20, 15), sphere.NewCap(200, -60, 40), sphere.NewCap(0, 89, 5)} {
		got, err := tab.CountRegionCandidates(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(c); got != want {
			t.Errorf("cap %+v: %d candidates, want %d", c, got, want)
		}
		inside := 0
		if err := tab.SearchRegion(c, func(int) bool { inside++; return true }); err != nil {
			t.Fatal(err)
		}
		if got < inside {
			t.Errorf("cap %+v: %d candidates bound only %d matches", c, got, inside)
		}
	}

	c := sphere.NewCap(10, 20, 15)
	before, _ := tab.CountRegionCandidates(c)
	if err := tab.Append(value.Int(9999), value.Float(10), value.Float(20), value.Float(1), value.String("STAR"), value.Bool(false)); err != nil {
		t.Fatal(err)
	}
	after, err := tab.CountRegionCandidates(c)
	if err != nil {
		t.Fatal(err)
	}
	if after != before+1 {
		t.Errorf("appended row at the cap centre: count %d -> %d", before, after)
	}
}
