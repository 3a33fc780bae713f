package htm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skyquery/internal/sphere"
)

func randUnit(rng *rand.Rand) sphere.Vec {
	for {
		x := 2*rng.Float64() - 1
		y := 2*rng.Float64() - 1
		s := x*x + y*y
		if s >= 1 {
			continue
		}
		f := 2 * math.Sqrt(1-s)
		return sphere.Vec{X: x * f, Y: y * f, Z: 1 - 2*s}
	}
}

func TestRootTrianglesCoverSphere(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		v := randUnit(rng)
		n := 0
		for r := 0; r < 8; r++ {
			if rootTriangle(r).Contains(v) {
				n++
			}
		}
		if n == 0 {
			t.Fatalf("point %v in no root triangle", v)
		}
	}
}

func TestRootTrianglesOrientation(t *testing.T) {
	// Every root triangle must contain its own centroid (CCW orientation).
	for r := 0; r < 8; r++ {
		tri := rootTriangle(r)
		if !tri.Contains(tri.Center()) {
			t.Errorf("root %d does not contain its centroid; orientation wrong", r)
		}
	}
}

func TestChildrenPartitionParent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tri := rootTriangle(0)
	for i := 0; i < 2000; i++ {
		// Sample points inside the parent by rejection.
		v := randUnit(rng)
		if !tri.Contains(v) {
			continue
		}
		n := 0
		for k := 0; k < 4; k++ {
			if tri.child(k).Contains(v) {
				n++
			}
		}
		if n == 0 {
			t.Fatalf("point %v in parent but no child", v)
		}
	}
}

func TestLookupInsideReturnedTrixel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, level := range []int{0, 1, 3, 8, 14, 20} {
		for i := 0; i < 300; i++ {
			v := randUnit(rng)
			id := Lookup(v, level)
			if got := id.Level(); got != level {
				t.Fatalf("Lookup level = %d, want %d", got, level)
			}
			if !id.Triangle().Contains(v) {
				t.Fatalf("level %d: %v not inside trixel %v", level, v, id)
			}
		}
	}
}

// lookupRef is Lookup as a plain loop over the four children's Contains
// tests. Stores persist Lookup's IDs, so any faster descent must agree
// with it exactly, on and next to trixel edges too.
func lookupRef(v sphere.Vec, level int) ID {
	ri := 0
	for i := 0; i < 8; i++ {
		if rootTriangle(i).Contains(v) {
			ri = i
			break
		}
	}
	id, t := ID(8+ri), rootTriangle(ri)
	for l := 0; l < level; l++ {
		k := 3
		for j := 0; j < 4; j++ {
			if t.child(j).Contains(v) {
				k = j
				break
			}
		}
		id, t = id.Child(k), t.child(k)
	}
	return id
}

func TestLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30_000; i++ {
		v := randUnit(rng)
		if i%3 != 0 {
			v = nearTrixelEdge(rng)
		}
		for _, level := range []int{0, 3, 14, 20, 24} {
			if got, want := Lookup(v, level), lookupRef(v, level); got != want {
				t.Fatalf("Lookup(%v, %d) = %v, want %v", v, level, got, want)
			}
		}
	}
}

func TestLookupPrefixProperty(t *testing.T) {
	// The level-L lookup of a point must be a descendant of its level-l
	// lookup for l < L.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		v := randUnit(rng)
		deep := Lookup(v, 12)
		shallow := Lookup(v, 5)
		if deep>>uint(2*(12-5)) != shallow {
			t.Fatalf("prefix property violated: deep=%v shallow=%v", deep, shallow)
		}
	}
}

func TestIDLevelParentChild(t *testing.T) {
	id := ID(8)
	if id.Level() != 0 {
		t.Errorf("root level = %d", id.Level())
	}
	c := id.Child(2)
	if c != ID(8<<2|2) {
		t.Errorf("Child = %v", c)
	}
	if c.Level() != 1 {
		t.Errorf("child level = %d", c.Level())
	}
	if c.Parent() != id {
		t.Errorf("Parent = %v", c.Parent())
	}
	if id.Parent() != id {
		t.Errorf("root Parent should be itself")
	}
	if ID(0).Level() != -1 || ID(7).Level() != -1 {
		t.Error("IDs below 8 must be invalid")
	}
	if ID(16).Level() != -1 {
		t.Error("ID 16 has an odd bit length and must be invalid")
	}
	if !ID(15).Valid() || ID(3).Valid() {
		t.Error("Valid() wrong")
	}
}

func TestAtLevel(t *testing.T) {
	id := ID(9)
	r := id.AtLevel(2)
	if r.Lo != 9<<4 || r.Hi != 10<<4-1 {
		t.Errorf("AtLevel(2) = %+v", r)
	}
	if r.Count() != 16 {
		t.Errorf("Count = %d, want 16", r.Count())
	}
	same := id.AtLevel(0)
	if same.Lo != id || same.Hi != id {
		t.Errorf("AtLevel(same) = %+v", same)
	}
}

func TestIDString(t *testing.T) {
	if got := ID(8).String(); got != "S0" {
		t.Errorf("ID(8).String() = %q", got)
	}
	if got := ID(15).String(); got != "N3" {
		t.Errorf("ID(15).String() = %q", got)
	}
	if got := ID(8).Child(3).Child(1).String(); got != "S031" {
		t.Errorf("S0.3.1 String = %q", got)
	}
	if got := ID(5).String(); got == "" {
		t.Error("invalid ID should still render")
	}
}

func TestTriangleRoundTripThroughID(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		v := randUnit(rng)
		id := Lookup(v, 9)
		tri := id.Triangle()
		if !tri.Contains(v) {
			t.Fatalf("Triangle() of Lookup() does not contain the point")
		}
		// Looking up the triangle centroid at the same level must return
		// the same ID.
		if got := Lookup(tri.Center(), 9); got != id {
			t.Fatalf("Lookup(center) = %v, want %v", got, id)
		}
	}
}

func TestCoverEach(t *testing.T) {
	c := sphere.NewCap(185, -0.5, 0.25)
	cov := CoverCap(c, LevelForRadius(0.25), 14)
	if len(cov.Inner) == 0 || len(cov.Partial) == 0 {
		t.Fatalf("degenerate cover: %d inner, %d partial", len(cov.Inner), len(cov.Partial))
	}
	var rs []Range
	var tests []bool
	cov.Each(func(r Range, needTest bool) bool {
		rs = append(rs, r)
		tests = append(tests, needTest)
		return true
	})
	if len(rs) != len(cov.Inner)+len(cov.Partial) {
		t.Fatalf("Each yielded %d ranges, want %d", len(rs), len(cov.Inner)+len(cov.Partial))
	}
	// Canonical trixel order: ascending by Lo across the inner/partial
	// interleave, each range tagged with its classification.
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo <= rs[i-1].Lo {
			t.Fatalf("range %d = %v not in ascending trixel order after %v", i, rs[i], rs[i-1])
		}
	}
	seen := map[Range]bool{}
	for i, r := range rs {
		seen[r] = true
		want := false
		for _, p := range cov.Partial {
			if p == r {
				want = true
			}
		}
		if tests[i] != want {
			t.Fatalf("range %d = %v tagged needTest=%v, want %v", i, rs[i], tests[i], want)
		}
	}
	for _, r := range append(append([]Range(nil), cov.Inner...), cov.Partial...) {
		if !seen[r] {
			t.Fatalf("range %v missing from enumeration", r)
		}
	}
	// Early stop.
	n := 0
	cov.Each(func(Range, bool) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Each continued after false: %d calls", n)
	}
}

func TestMergeRanges(t *testing.T) {
	in := []Range{{10, 12}, {13, 15}, {1, 2}, {11, 14}, {20, 22}}
	out := MergeRanges(in)
	want := []Range{{1, 2}, {10, 15}, {20, 22}}
	if len(out) != len(want) {
		t.Fatalf("MergeRanges = %+v, want %+v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("MergeRanges[%d] = %+v, want %+v", i, out[i], want[i])
		}
	}
	if got := MergeRanges(nil); len(got) != 0 {
		t.Errorf("MergeRanges(nil) = %v", got)
	}
	single := MergeRanges([]Range{{5, 6}})
	if len(single) != 1 || single[0] != (Range{5, 6}) {
		t.Errorf("MergeRanges single = %v", single)
	}
}

// coverOracle checks a cover against brute-force point classification.
func coverOracle(t *testing.T, c sphere.Cap, cov Cover, nPoints int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	contains := func(rs []Range, id ID) bool {
		for _, r := range rs {
			if r.Contains(id) {
				return true
			}
		}
		return false
	}
	for i := 0; i < nPoints; i++ {
		// Mix uniform sphere points and points near the cap boundary,
		// where cover classification mistakes would hide.
		var v sphere.Vec
		if i%2 == 0 {
			v = randUnit(rng)
		} else {
			spread := math.Sin((c.Radius*2 + 0.001) * sphere.RadPerDeg * rng.Float64())
			v = c.Center.Add(randUnit(rng).Scale(spread)).Normalize()
		}
		id := Lookup(v, cov.Level)
		inInner := contains(cov.Inner, id)
		inPartial := contains(cov.Partial, id)
		if c.Contains(v) && !inInner && !inPartial {
			t.Fatalf("point %v inside cap missed by cover (id %v)", v, id)
		}
		if inInner && !c.Contains(v) {
			t.Fatalf("point %v in inner range but outside cap", v)
		}
	}
}

func TestCoverCapSmall(t *testing.T) {
	c := sphere.NewCap(185.0, -0.5, sphere.Arcsec(4.5))
	cov := CoverCap(c, LevelForRadius(c.Radius), 20)
	if len(cov.Inner)+len(cov.Partial) == 0 {
		t.Fatal("empty cover")
	}
	coverOracle(t, c, cov, 3000, 10)
}

func TestCoverCapMedium(t *testing.T) {
	c := sphere.NewCap(40, 30, 2.5)
	cov := CoverCap(c, LevelForRadius(c.Radius), 14)
	coverOracle(t, c, cov, 3000, 11)
}

func TestCoverCapLarge(t *testing.T) {
	c := sphere.NewCap(200, -45, 60)
	cov := CoverCap(c, 6, 10)
	if len(cov.Inner) == 0 {
		t.Error("a 60 degree cap must have inner trixels")
	}
	coverOracle(t, c, cov, 3000, 12)
}

func TestCoverCapOverHalfSphere(t *testing.T) {
	c := sphere.NewCap(0, 0, 120)
	cov := CoverCap(c, 5, 8)
	coverOracle(t, c, cov, 3000, 13)
}

func TestCoverCapPole(t *testing.T) {
	c := sphere.NewCap(123, 90, 1)
	cov := CoverCap(c, LevelForRadius(c.Radius), 14)
	coverOracle(t, c, cov, 3000, 14)
}

func TestCoverFullSphere(t *testing.T) {
	c := sphere.NewCap(0, 0, 180)
	cov := CoverCap(c, 3, 6)
	rs := cov.Ranges()
	var total uint64
	for _, r := range rs {
		total += r.Count()
	}
	// 8 * 4^6 leaf trixels in total.
	if want := uint64(8 * 1 << (2 * 6)); total != want {
		t.Errorf("full sphere cover has %d leaves, want %d", total, want)
	}
}

func TestCoverRangesMerged(t *testing.T) {
	c := sphere.NewCap(10, 10, 5)
	cov := CoverCap(c, 8, 12)
	rs := cov.Ranges()
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo <= rs[i-1].Hi+1 {
			t.Fatalf("ranges %d and %d not merged: %+v %+v", i-1, i, rs[i-1], rs[i])
		}
	}
}

func TestCoverInnerSubsetOfCap(t *testing.T) {
	// Sample the centers of some inner leaf trixels; all must be in the cap.
	c := sphere.NewCap(75, -20, 4)
	cov := CoverCap(c, 9, 12)
	for _, r := range cov.Inner {
		for _, id := range []ID{r.Lo, r.Hi, (r.Lo + r.Hi) / 2} {
			if id.Level() != cov.Level {
				continue // midpoint may not be a valid ID at level; skip
			}
			if !c.Contains(id.Triangle().Center()) {
				t.Fatalf("inner trixel %v center outside cap", id)
			}
		}
	}
}

// levelForRadiusRef is LevelForRadius as a loop over TrixelSize, the
// definition the table lookup must reproduce.
func levelForRadiusRef(radiusDeg float64) int {
	level := 0
	for TrixelSize(level) > radiusDeg && level < MaxLevel {
		level++
	}
	if level < MaxLevel {
		level++
	}
	return level
}

func TestLevelForRadiusBoundaries(t *testing.T) {
	radii := []float64{0, math.Copysign(0, -1), -1, -1e-300, math.NaN(), math.Inf(1), math.Inf(-1),
		90, 90.0000001, 180, 1e300, math.SmallestNonzeroFloat64, sphere.Arcsec(1), sphere.Arcsec(4.5)}
	for l := 0; l <= MaxLevel+2; l++ {
		s := TrixelSize(l)
		radii = append(radii, s, math.Nextafter(s, 0), math.Nextafter(s, math.Inf(1)), s*0.75, s*1.5)
	}
	for _, r := range radii {
		if got, want := LevelForRadius(r), levelForRadiusRef(r); got != want {
			t.Errorf("LevelForRadius(%v) = %d, want %d", r, got, want)
		}
	}
}

func TestIDLevelTable(t *testing.T) {
	cases := []struct {
		id   ID
		want int
	}{
		{0, -1}, {1, -1}, {2, -1}, {3, -1}, {4, -1}, {5, -1}, {6, -1}, {7, -1},
		{8, 0}, {11, 0}, {15, 0},
		{16, -1}, {31, -1}, // 5 bits: odd length past the root nibble
		{32, 1}, {63, 1},
		{ID(8) << 48, 24}, {ID(16)<<48 - 1, 24}, {Lookup(sphere.FromRaDec(185, -0.5), 24), 24},
		{ID(8) << 47, -1}, {ID(1) << 63, 30}, {^ID(0), 30},
	}
	for _, c := range cases {
		if got := c.id.Level(); got != c.want {
			t.Errorf("ID(%#x).Level() = %d, want %d", uint64(c.id), got, c.want)
		}
	}
}

func TestLevelForRadius(t *testing.T) {
	small := LevelForRadius(sphere.Arcsec(4.5))
	big := LevelForRadius(30)
	if small <= big {
		t.Errorf("smaller radius should give deeper level: %d vs %d", small, big)
	}
	if small > MaxLevel || big < 0 {
		t.Errorf("levels out of range: %d %d", small, big)
	}
	if got := LevelForRadius(0); got != MaxLevel {
		t.Errorf("LevelForRadius(0) = %d, want MaxLevel", got)
	}
}

// coverCapRef is the cover walk as it was before the enclosing-trixel
// descent and the trig-free edge test: every root is classified, and the
// cap-versus-edge test measures angular distances with distToArc. It is
// kept as the oracle CoverCap must reproduce range for range.
func coverCapRef(c sphere.Cap, subdivideLevel, leafLevel int) Cover {
	if leafLevel > MaxLevel {
		leafLevel = MaxLevel
	}
	if subdivideLevel > leafLevel {
		subdivideLevel = leafLevel
	}
	if subdivideLevel < 0 {
		subdivideLevel = 0
	}
	cov := Cover{Level: leafLevel}
	for i := 0; i < 8; i++ {
		coverRecurseRef(ID(8+i), rootTriangle(i), c, subdivideLevel, leafLevel, &cov)
	}
	cov.Inner = MergeRanges(cov.Inner)
	cov.Partial = MergeRanges(cov.Partial)
	return cov
}

func coverRecurseRef(id ID, t Triangle, c sphere.Cap, subdivideLevel, leafLevel int, cov *Cover) {
	switch classifyRef(t, c) {
	case disjoint:
		return
	case inside:
		cov.Inner = append(cov.Inner, id.AtLevel(leafLevel))
	case partial:
		if id.Level() >= subdivideLevel {
			cov.Partial = append(cov.Partial, id.AtLevel(leafLevel))
			return
		}
		for k := 0; k < 4; k++ {
			coverRecurseRef(id.Child(k), t.child(k), c, subdivideLevel, leafLevel, cov)
		}
	}
}

func classifyRef(t Triangle, c sphere.Cap) classification {
	in := 0
	for _, v := range t {
		if c.Contains(v) {
			in++
		}
	}
	if in == 3 {
		if c.Radius <= 90 {
			return inside
		}
		if !capBoundaryNearTriangleRef(t, c) {
			return inside
		}
		return partial
	}
	if in > 0 {
		return partial
	}
	if t.Contains(c.Center) {
		return partial
	}
	if capBoundaryNearTriangleRef(t, c) {
		return partial
	}
	return disjoint
}

func capBoundaryNearTriangleRef(t Triangle, c sphere.Cap) bool {
	for i := 0; i < 3; i++ {
		a, b := t[i], t[(i+1)%3]
		if distToArc(c.Center, a, b) <= c.Radius {
			return true
		}
	}
	return false
}

// distToArc returns the angular distance in degrees from the unit vector p
// to the geodesic arc segment from a to b.
func distToArc(p, a, b sphere.Vec) float64 {
	n := a.Cross(b)
	if n.Norm() == 0 {
		return p.Sep(a)
	}
	n = n.Normalize()
	cp := p.Sub(n.Scale(n.Dot(p)))
	if cp.Norm() < 1e-15 {
		// p is at the circle's pole: equidistant from the whole circle.
		return 90
	}
	cp = cp.Normalize()
	if a.Cross(cp).Dot(n) >= 0 && cp.Cross(b).Dot(n) >= 0 {
		return p.Sep(cp)
	}
	return math.Min(p.Sep(a), p.Sep(b))
}

func sameRanges(a, b []Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// matchRef fails the test unless CoverCap returns the reference walk's
// ranges for the cap, and reports whether they differed at an exact tie.
//
// A tie is a trixel whose nearest point is at exactly distance r from the
// centre, within rounding: a trixel vertex exactly 90° from a pole, or an
// edge exactly 30° from a centre at dec −60°. There the reference's atan2
// distance and the dot-product tests round differently, so either walk
// may keep a partial trixel that touches the cap only on its boundary.
// Any other difference fails.
func matchRef(t *testing.T, c sphere.Cap, sub, leaf int) (tie bool) {
	t.Helper()
	got, want := CoverCap(c, sub, leaf), coverCapRef(c, sub, leaf)
	if got.Level == want.Level && sameRanges(got.Inner, want.Inner) && sameRanges(got.Partial, want.Partial) {
		return false
	}
	fail := func(why string) {
		t.Fatalf("%s sub %d leaf %d: %s\nCoverCap  inner %v partial %v\nreference inner %v partial %v",
			c, sub, leaf, why, got.Inner, got.Partial, want.Inner, want.Partial)
	}
	if !sameRanges(got.Inner, want.Inner) {
		fail("inner ranges differ")
	}
	// Compare the partial trixels themselves, at the subdivision level.
	only := map[ID]bool{} // in exactly one of the two covers
	for _, cov := range []Cover{CoverCap(c, sub, sub), coverCapRef(c, sub, sub)} {
		for _, r := range cov.Partial {
			for id := r.Lo; id <= r.Hi; id++ {
				only[id] = !only[id]
			}
		}
	}
	for id, differs := range only {
		if !differs {
			continue
		}
		tri := id.Triangle()
		d := math.Inf(1)
		for i := 0; i < 3; i++ {
			d = math.Min(d, distToArc(c.Center, tri[i], tri[(i+1)%3]))
		}
		if math.Abs(d-c.Radius) > 1e-9 || tri.Contains(c.Center) {
			fail(fmt.Sprintf("partial trixel %v differs %.3g° from the boundary", id, d-c.Radius))
		}
	}
	return true
}

// nearTrixelEdge returns a point within offset radians of an edge or
// vertex of the level-14 trixel holding a random point.
func nearTrixelEdge(rng *rand.Rand) sphere.Vec {
	tri := Lookup(randUnit(rng), 14).Triangle()
	i := rng.Intn(3)
	a, b := tri[i], tri[(i+1)%3]
	var on sphere.Vec
	if rng.Intn(4) == 0 {
		on = a // a vertex
	} else {
		f := rng.Float64()
		on = a.Scale(1 - f).Add(b.Scale(f)).Normalize()
	}
	offset := (2*rng.Float64() - 1) * 1e-6
	switch rng.Intn(4) {
	case 0:
		offset = 0
	case 1:
		offset *= 1e-6
	}
	return on.Add(randUnit(rng).Scale(offset)).Normalize()
}

// diffCap draws one cap for the differential: centres at the poles, on the
// RA 0/360 wrap, near level-14 trixel edges and vertices, or anywhere;
// radii log-uniform from 0.01″ to 179° plus a few exact and malformed
// values. Radii
// that put trixel vertices at exactly distance r from these centres (45°,
// 90°) are ties, exercised by TestCoverCapExactTies.
func diffCap(rng *rand.Rand) sphere.Cap {
	var center sphere.Vec
	switch rng.Intn(6) {
	case 0:
		dec := 90.0
		if rng.Intn(2) == 0 {
			dec = -90
		}
		center = sphere.FromRaDec(360*rng.Float64(), dec-math.Copysign(rng.Float64()*rng.Float64()*1e-3, dec)*float64(rng.Intn(2)))
	case 1:
		ra := []float64{0, 360, 1e-9, 360 - 1e-9, 1e-4, 359.9999}[rng.Intn(6)]
		center = sphere.FromRaDec(ra, 180*rng.Float64()-90)
	case 2, 3:
		center = nearTrixelEdge(rng)
	default:
		center = randUnit(rng)
	}
	lo, hi := math.Log(sphere.Arcsec(0.01)), math.Log(179)
	r := math.Exp(lo + (hi-lo)*rng.Float64())
	switch rng.Intn(100) {
	case 0, 1:
		r = []float64{sphere.Arcsec(0.01), sphere.Arcsec(1), 179}[rng.Intn(3)]
	case 2:
		// Malformed radii: no edge is near, only vertices within |r|
		// count (a small |r| keeps the reference walk short).
		r = []float64{-sphere.Arcsec(1 + 10*rng.Float64()), math.NaN()}[rng.Intn(2)]
	}
	return sphere.CapAround(center, r)
}

// TestCoverCapMatchesReference is the differential for the cover: over
// 100k seeded caps at leaf levels 8, 14 and 20, with the subdivision level
// the storage layer picks, CoverCap must return exactly the reference
// walk's ranges.
func TestCoverCapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	leaves := []int{8, 14, 20}
	for i := 0; i < 100_000; i++ {
		c := diffCap(rng)
		leaf := leaves[i%len(leaves)]
		sub := LevelForRadius(c.Radius)
		if rng.Intn(8) == 0 && sub > 0 {
			sub = rng.Intn(sub) // a coarser subdivision than the search picks
		}
		if matchRef(t, c, sub, leaf) {
			t.Fatalf("%s sub %d leaf %d: differs from the reference at a tie, which random radii should not reach", c, sub, leaf)
		}
	}
}

// TestCoverCapExactTies covers caps whose radius puts trixel vertices at
// exactly distance r from the centre: 45° and 90° around the poles and
// the octahedron corners on the equator. CoverCap may differ from the
// reference only by the tie trixels matchRef allows, and the cover must
// still hold every point of the cap. A radius just under 90°, whose sine
// rounds to 1, is no tie: the edges 90° away must stay out.
func TestCoverCapExactTies(t *testing.T) {
	ties := 0
	for _, ra := range []float64{0, 37.5, 90, 180, 227.662, 270} {
		for _, dec := range []float64{90, -90, 0} {
			for _, r := range []float64{45, 90, 90 - 1e-8} {
				c := sphere.NewCap(ra, dec, r)
				for _, leaf := range []int{8, 14} {
					sub := LevelForRadius(r)
					if matchRef(t, c, sub, leaf) {
						ties++
					}
					coverOracle(t, c, CoverCap(c, sub, leaf), 500, int64(leaf))
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no cap reached a tie; the test no longer exercises one")
	}
	t.Logf("%d of 108 covers differ from the reference at ties", ties)
}

// FuzzCoverCap makes the same assertion on fuzzed caps. The radius is
// folded into [0, 179°] and the subdivision is the search's own, so the
// reference walk stays bounded.
func FuzzCoverCap(f *testing.F) {
	f.Add(185.0, -0.5, 4.5, uint8(14))
	f.Add(0.0, 90.0, 1.0, uint8(20))
	f.Add(0.0, -90.0, 360000.0, uint8(8))
	f.Add(359.99999999, 12.0, 0.01, uint8(14))
	f.Add(45.0, 35.264389682754654, 30.0, uint8(14))
	f.Add(90.0, 0.0, 324000.0, uint8(8))
	f.Fuzz(func(t *testing.T, ra, dec, radiusArcsec float64, leafSel uint8) {
		if math.IsNaN(ra+dec+radiusArcsec) || math.IsInf(ra+dec+radiusArcsec, 0) {
			t.Skip()
		}
		r := math.Mod(math.Abs(sphere.Arcsec(radiusArcsec)), 179)
		c := sphere.NewCap(ra, dec, r)
		leaf := []int{8, 14, 20}[int(leafSel)%3]
		matchRef(t, c, LevelForRadius(r), leaf)
	})
}

// BenchmarkCoverCap times arc-second caps at leaf level 14, as a
// cross-match step covers them: one well inside a trixel, and one across
// a trixel edge, so the walk after the descent is measured too.
func BenchmarkCoverCap(b *testing.B) {
	r := sphere.Arcsec(1)
	sub := LevelForRadius(r)
	// A level-13 trixel's middle child has all its edges inside the
	// parent: a cap on one of them straddles level 14 only.
	parent := Lookup(sphere.FromRaDec(185, -0.5), 13)
	mid := parent.Child(3).Triangle()
	cases := []struct {
		name string
		c    sphere.Cap
	}{
		{"inside", sphere.CapAround(mid.Center(), r)},
		{"straddle", sphere.CapAround(mid[0].Add(mid[1]).Normalize(), r)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CoverCap(tc.c, sub, 14)
			}
		})
	}
}

func TestDistToArc(t *testing.T) {
	a := sphere.FromRaDec(0, 0)
	b := sphere.FromRaDec(10, 0)
	// Point above the middle of the arc.
	p := sphere.FromRaDec(5, 3)
	if d := distToArc(p, a, b); !almostEq(d, 3, 1e-9) {
		t.Errorf("distToArc mid = %v, want 3", d)
	}
	// Point beyond an endpoint: distance to the endpoint.
	q := sphere.FromRaDec(-4, 0)
	if d := distToArc(q, a, b); !almostEq(d, 4, 1e-9) {
		t.Errorf("distToArc beyond end = %v, want 4", d)
	}
	// Pole of the great circle.
	pole := sphere.FromRaDec(0, 90)
	if d := distToArc(pole, a, b); !almostEq(d, 90, 1e-9) {
		t.Errorf("distToArc pole = %v, want 90", d)
	}
}

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestTrixelSize(t *testing.T) {
	if TrixelSize(0) != 90 {
		t.Errorf("TrixelSize(0) = %v", TrixelSize(0))
	}
	if TrixelSize(1) != 45 {
		t.Errorf("TrixelSize(1) = %v", TrixelSize(1))
	}
}
