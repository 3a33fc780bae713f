// Package htm implements the Hierarchical Triangular Mesh, the spatial
// index the paper's SkyNodes use for range searches (§5.4): a quad tree on
// the sky whose nodes are spherical triangles ("trixels").
//
// The sphere is split into 8 root trixels (4 per hemisphere). Each trixel
// splits into 4 children by joining the normalized midpoints of its edges.
// A trixel at level L is named by a 64-bit ID: roots are 8..15 and each
// descent appends two bits, so the ID of a child is parent<<2 | k. IDs of
// all descendants of a trixel form one contiguous range, which is what
// makes the index useful: a sky region "covers" to a short list of ID
// ranges, and objects stored sorted by leaf-level ID are fetched with a few
// range scans.
//
// To retrieve objects in a circular range the paper's recipe is followed
// exactly: trixels entirely inside the circle contribute all their objects,
// trixels that merely intersect contribute candidates that are then tested
// individually.
//
// Covering a cap is the per-tuple cost of every cross-match step, so
// CoverCap avoids both redundant trixels and trigonometry. A cap under 90°
// first descends from the root holding its centre to the deepest trixel
// whose three edge planes all keep the cap strictly inside; every trixel
// outside that one is disjoint from the cap and would be dropped by the
// classification anyway, so the walk starts there instead of at the 8
// roots and the cover does not change. The cap-versus-edge test is made
// with dot products against edge planes (Kunszt, Szalay & Thakar, "The
// Hierarchical Triangular Mesh", 2001) using sin r computed once per cover,
// never with angular distances.
package htm

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"skyquery/internal/sphere"
)

// ID names a trixel. The root trixels are 8..15; a child ID is
// parent<<2|k for k in 0..3. The zero ID is invalid.
type ID uint64

// MaxLevel is the deepest supported subdivision. At level 24 a trixel is
// about 0.01 arc seconds across, far below survey astrometric error, and
// the ID still fits comfortably in 52 bits.
const MaxLevel = 24

// LevelRange returns the inclusive range of all valid trixel IDs at a
// level: the full-sky ID universe a sharded archive's trixel ranges must
// tile. Root trixels are 8..15, and each level appends two bits.
func LevelRange(level int) Range {
	return Range{Lo: ID(8) << (2 * uint(level)), Hi: ID(16)<<(2*uint(level)) - 1}
}

// rootVertices are the 6 octahedron corners the standard HTM starts from.
var rootVertices = [6]sphere.Vec{
	{X: 0, Y: 0, Z: 1},  // v0: north pole
	{X: 1, Y: 0, Z: 0},  // v1
	{X: 0, Y: 1, Z: 0},  // v2
	{X: -1, Y: 0, Z: 0}, // v3
	{X: 0, Y: -1, Z: 0}, // v4
	{X: 0, Y: 0, Z: -1}, // v5: south pole
}

// roots lists the vertex indices of the 8 root trixels S0..S3, N0..N3 in
// ID order (8..15), matching the published HTM layout.
var roots = [8][3]int{
	{1, 5, 2}, // S0 = 8
	{2, 5, 3}, // S1 = 9
	{3, 5, 4}, // S2 = 10
	{4, 5, 1}, // S3 = 11
	{1, 0, 4}, // N0 = 12
	{4, 0, 3}, // N1 = 13
	{3, 0, 2}, // N2 = 14
	{2, 0, 1}, // N3 = 15
}

// Triangle is the geometry of a trixel: three unit vectors in
// counter-clockwise order seen from outside the sphere.
type Triangle [3]sphere.Vec

// rootTriangle returns the geometry of root trixel i (0..7).
func rootTriangle(i int) Triangle {
	r := roots[i]
	return Triangle{rootVertices[r[0]], rootVertices[r[1]], rootVertices[r[2]]}
}

// child returns the k-th child of t (k in 0..3).
func (t Triangle) child(k int) Triangle { return t.childOf(k, t.midpoints()) }

// midpoints returns the normalized edge midpoints the children join: w[0]
// is opposite t[0], w[1] opposite t[1], w[2] opposite t[2].
func (t Triangle) midpoints() [3]sphere.Vec {
	return [3]sphere.Vec{
		t[1].Add(t[2]).Normalize(),
		t[0].Add(t[2]).Normalize(),
		t[0].Add(t[1]).Normalize(),
	}
}

// childOf returns the k-th child of t given t's midpoints w. Every trixel
// geometry is built here, so a triangle reached by any descent is
// bit-identical to the one the cover walk classifies.
func (t Triangle) childOf(k int, w [3]sphere.Vec) Triangle {
	switch k {
	case 0:
		return Triangle{t[0], w[2], w[1]}
	case 1:
		return Triangle{t[1], w[0], w[2]}
	case 2:
		return Triangle{t[2], w[1], w[0]}
	default:
		return Triangle{w[0], w[1], w[2]}
	}
}

// containsEps is the tolerance for point-in-triangle sign tests. Boundary
// points may fall in either adjacent trixel; what matters is that they fall
// in at least one, so the test is made slightly generous.
const containsEps = 1e-14

// Contains reports whether the unit vector v is inside the triangle.
func (t Triangle) Contains(v sphere.Vec) bool {
	return t[0].Cross(t[1]).Dot(v) >= -containsEps &&
		t[1].Cross(t[2]).Dot(v) >= -containsEps &&
		t[2].Cross(t[0]).Dot(v) >= -containsEps
}

// Center returns the normalized centroid of the triangle.
func (t Triangle) Center() sphere.Vec {
	return t[0].Add(t[1]).Add(t[2]).Normalize()
}

// Level returns the subdivision level of id: 0 for roots, increasing by
// one per descent. It returns -1 for invalid IDs.
func (id ID) Level() int {
	if id < 8 {
		return -1
	}
	n := 64 - bits.LeadingZeros64(uint64(id))
	if (n-4)%2 != 0 {
		return -1
	}
	return (n - 4) / 2
}

// Valid reports whether id names a trixel.
func (id ID) Valid() bool { return id.Level() >= 0 && id.Level() <= MaxLevel }

// Parent returns the parent trixel of id. Roots return themselves.
func (id ID) Parent() ID {
	if id.Level() <= 0 {
		return id
	}
	return id >> 2
}

// Child returns the k-th child (0..3) of id.
func (id ID) Child(k int) ID { return id<<2 | ID(k&3) }

// AtLevel returns the ID range (inclusive) of all descendants of id at the
// given deeper level. If level equals id's level the range is {id, id}.
func (id ID) AtLevel(level int) Range {
	shift := uint(2 * (level - id.Level()))
	return Range{Lo: id << shift, Hi: (id+1)<<shift - 1}
}

// Triangle returns the geometry of the trixel named by id.
func (id ID) Triangle() Triangle {
	level := id.Level()
	if level < 0 {
		return Triangle{}
	}
	// Extract the path: top 4 bits are 8+root, then 2 bits per level.
	t := rootTriangle(int(id>>(2*uint(level))) - 8)
	for i := level - 1; i >= 0; i-- {
		k := int(id>>(2*uint(i))) & 3
		t = t.child(k)
	}
	return t
}

// String implements fmt.Stringer using the conventional N/S path notation.
func (id ID) String() string {
	level := id.Level()
	if level < 0 {
		return fmt.Sprintf("htm.ID(invalid %d)", uint64(id))
	}
	names := [8]string{"S0", "S1", "S2", "S3", "N0", "N1", "N2", "N3"}
	s := names[int(id>>(2*uint(level)))-8]
	for i := level - 1; i >= 0; i-- {
		s += fmt.Sprintf("%d", int(id>>(2*uint(i)))&3)
	}
	return s
}

// Lookup returns the ID of the trixel at the given level containing the
// unit vector v.
func Lookup(v sphere.Vec, level int) ID {
	if level < 0 {
		level = 0
	}
	if level > MaxLevel {
		level = MaxLevel
	}
	ri := -1
	for i := 0; i < 8; i++ {
		if rootTriangle(i).Contains(v) {
			ri = i
			break
		}
	}
	if ri < 0 {
		// Cannot happen for a genuine unit vector, but be safe for
		// degenerate input.
		ri = 0
	}
	id := ID(8 + ri)
	t := rootTriangle(ri)
	for l := 0; l < level; l++ {
		m := t.midpoints()
		k := childHolding(&t, &m, v)
		id, t = id.Child(k), t.childOf(k, m)
	}
	return id
}

// childHolding returns the first child of t (with midpoints m) whose
// Contains holds v. A point in none of the corner children 0..2 takes the
// middle child 3, whether it holds the point or, in a numerical corner
// case on a shared edge, none does: the middle child borders all others.
// Corner child k is {t[k], m[k+2], m[k+1]} (indices mod 3), as childOf
// builds it; its edge to the middle child is tested first, since a point
// elsewhere in t fails there, and the conjunction is Contains' own.
func childHolding(t *Triangle, m *[3]sphere.Vec, v sphere.Vec) int {
	for k := 0; k < 3; k++ {
		a, b, c := t[k], m[(k+2)%3], m[(k+1)%3]
		if b.Cross(c).Dot(v) >= -containsEps &&
			a.Cross(b).Dot(v) >= -containsEps &&
			c.Cross(a).Dot(v) >= -containsEps {
			return k
		}
	}
	return 3
}

// Range is an inclusive range of trixel IDs at a common level.
type Range struct {
	Lo, Hi ID
}

// Contains reports whether id falls within the range.
func (r Range) Contains(id ID) bool { return id >= r.Lo && id <= r.Hi }

// Count returns the number of IDs in the range.
func (r Range) Count() uint64 { return uint64(r.Hi-r.Lo) + 1 }

// Cover is the result of covering a region: Inner ranges are entirely
// inside the region (objects there need no further test), Partial ranges
// merely intersect it (objects there must be tested individually). All
// ranges are expressed at leaf Level.
type Cover struct {
	Level   int
	Inner   []Range
	Partial []Range
}

// Each enumerates the cover's ranges in canonical trixel order — inner
// and partial ranges interleaved by ascending ID, each tagged with
// whether its objects still need an individual containment test — until
// fn returns false. It is the block-aligned enumeration protocol behind
// the storage layer's spatial searches: a consumer drains each contiguous
// ID range as one index scan instead of re-deriving the inner/partial
// split. The global ascending order is load-bearing for the sharded
// federation: a shard holding trixels [lo,hi] emits exactly the slice of
// this enumeration that falls in its range, so concatenating shard
// outputs in range order reproduces the single-node order at any shard
// count.
func (c Cover) Each(fn func(r Range, needTest bool) bool) {
	i, p := 0, 0
	for i < len(c.Inner) || p < len(c.Partial) {
		takeInner := p >= len(c.Partial) ||
			(i < len(c.Inner) && c.Inner[i].Lo <= c.Partial[p].Lo)
		if takeInner {
			if !fn(c.Inner[i], false) {
				return
			}
			i++
		} else {
			if !fn(c.Partial[p], true) {
				return
			}
			p++
		}
	}
}

// Ranges returns the union of inner and partial ranges, merged and sorted.
// This is the set of index scans needed to enumerate all candidates.
func (c Cover) Ranges() []Range {
	all := make([]Range, 0, len(c.Inner)+len(c.Partial))
	all = append(all, c.Inner...)
	all = append(all, c.Partial...)
	return MergeRanges(all)
}

// MergeRanges sorts ranges and merges overlapping or adjacent ones. Input
// already in ascending order, as a cover walk emits it, is not re-sorted.
func MergeRanges(rs []Range) []Range {
	if len(rs) <= 1 {
		return rs
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo < rs[i-1].Lo {
			sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
			break
		}
	}
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// CoverCap computes the trixels covering a spherical cap, descending at
// most to subdivideLevel and reporting ranges at leafLevel (the level at
// which objects are indexed). A subdivideLevel above leafLevel is clamped
// to it.
//
// The classification follows the paper: a trixel whose vertices all lie in
// the cap is inner; a trixel that intersects the cap boundary is split
// until subdivideLevel and then reported as partial; disjoint trixels are
// dropped.
//
// A cap under 90° does not start the walk at the 8 roots. It first
// descends from the root holding its centre to the deepest trixel, at most
// subdivideLevel deep, that keeps the whole cap strictly inside all three
// of its edge planes, and walks from there. Every trixel outside that
// enclosing trixel is disjoint from the cap, and its ancestors all hold the
// centre and are split, so the walk from the roots would reach exactly the
// same ranges. Caps that no root encloses walk from the 8 roots.
func CoverCap(c sphere.Cap, subdivideLevel, leafLevel int) Cover {
	if leafLevel > MaxLevel {
		leafLevel = MaxLevel
	}
	if subdivideLevel > leafLevel {
		subdivideLevel = leafLevel
	}
	if subdivideLevel < 0 {
		subdivideLevel = 0
	}
	r := c.Radius
	sin := math.Sin(r * sphere.RadPerDeg)
	w := coverWalk{
		c:        c,
		sin2:     sin * sin,
		wide:     r >= 90,
		noEdge:   !(r >= 0),
		enclose2: sin*sin + encloseMargin,
		sub:      subdivideLevel,
		leaf:     leafLevel,
		cov:      Cover{Level: leafLevel},
	}
	if id, level, t, ok := w.enclosing(); ok {
		w.recurse(id, level, t)
	} else {
		for i := 0; i < 8; i++ {
			w.recurse(ID(8+i), 0, rootTriangle(i))
		}
	}
	w.cov.Inner = MergeRanges(w.cov.Inner)
	w.cov.Partial = MergeRanges(w.cov.Partial)
	return w.cov
}

// coverWalk is one CoverCap call: the cap with what classifying trixels
// against it needs, computed once so no trigonometry runs per trixel; the
// levels; and the cover being built.
type coverWalk struct {
	c sphere.Cap
	// sin2 is sin²r, the squared sine of the radius, for caps under 90°.
	sin2 float64
	// wide marks caps of 90° or more, which reach the nearest point of
	// every great circle: it is at most 90° away.
	wide bool
	// noEdge marks negative or NaN radii, whose boundary reaches no edge.
	noEdge bool
	// enclose2 is sin²r + encloseMargin: the squared sine an edge plane
	// must keep the centre beyond for the cap to count as inside it.
	enclose2  float64
	sub, leaf int
	cov       Cover
}

// recurse classifies trixel id (at level, with geometry t) and records it
// or splits it.
func (w *coverWalk) recurse(id ID, level int, t Triangle) {
	switch w.classify(t) {
	case disjoint:
		return
	case inside:
		w.cov.Inner = append(w.cov.Inner, id.AtLevel(w.leaf))
	case partial:
		if level >= w.sub {
			w.cov.Partial = append(w.cov.Partial, id.AtLevel(w.leaf))
			return
		}
		m := t.midpoints()
		for k := 0; k < 4; k++ {
			w.recurse(id.Child(k), level+1, t.childOf(k, m))
		}
	}
}

// enclosing finds the deepest trixel, at most w.sub deep, that strictly
// encloses a cap under 90°. ok is false when the cap is 90° or wider (or
// its radius is negative or NaN) or when no root encloses it.
func (w *coverWalk) enclosing() (id ID, level int, t Triangle, ok bool) {
	r := w.c.Radius
	if !(r >= 0 && r < 90) {
		return 0, 0, Triangle{}, false
	}
	p := w.c.Center
	for i := 0; i < 8; i++ {
		if t = rootTriangle(i); t.Contains(p) {
			id = ID(8 + i)
			break
		}
	}
	if id == 0 || !w.encloses(t) {
		return 0, 0, Triangle{}, false
	}
	for level < w.sub {
		m := t.midpoints()
		k := childHolding(&t, &m, p)
		c := t.childOf(k, m)
		if !w.encloses(c) {
			break
		}
		id, level, t = id.Child(k), level+1, c
	}
	return id, level, t, true
}

// encloseMargin is added to sin²r in the enclosing test. It only makes
// the descent stop a level early near an edge, never changes a cover, and
// at 1e-6 rad (0.2″) it dominates every rounding the enclosure must beat:
// the plane-distance tests, the vertex dot test p·v ≥ cos r (which cannot
// tell angles apart below ~1e-8 rad near 1), and Triangle.Contains'
// containsEps slack, which a neighbouring trixel grants in unnormalized
// plane units, ~2e-7 rad at level 24.
const encloseMargin = 1e-12

// encloses reports whether the cap lies strictly inside all three edge
// planes of t: n·p > sin r·|n| for each edge normal n, with a margin.
func (w *coverWalk) encloses(t Triangle) bool {
	p := w.c.Center
	for i := 0; i < 3; i++ {
		n := t[i].Cross(t[(i+1)%3])
		d := n.Dot(p)
		if d <= 0 || d*d <= w.enclose2*n.Dot(n) {
			return false
		}
	}
	return true
}

type classification int

const (
	disjoint classification = iota
	partial
	inside
)

// classify determines the relation of a trixel to the cap.
func (w *coverWalk) classify(t Triangle) classification {
	in := 0
	for _, v := range t {
		if w.c.Contains(v) {
			in++
		}
	}
	if in == 3 && w.c.Radius <= 90 {
		// A cap of radius <= 90° is geodesically convex, so a triangle
		// with all vertices inside lies entirely inside.
		return inside
	}
	if in > 0 {
		// A vertex in the cap puts the boundary within reach of its
		// edges. That includes a cap over 90° holding all three: it is
		// not convex, the triangle may poke out the far side, and it is
		// treated conservatively as partial (candidates are re-tested
		// individually anyway).
		return partial
	}
	// No vertex inside. The cap may still poke through an edge or sit
	// entirely within the triangle.
	if t.Contains(w.c.Center) || w.edgeNear(t) {
		return partial
	}
	return disjoint
}

// edgeNear reports whether the cap boundary comes within one of the
// triangle's edges, i.e. whether the angular distance from the centre p to
// some edge segment is at most the radius r. It is called only when no
// vertex is in the cap, so an edge counts only when the great-circle foot
// of p falls inside the segment (otherwise the nearest point is an
// endpoint, already outside) and p is within r of the edge's plane:
// |n·p| ≤ sin r·|n| for the edge normal n = a×b, tested squared. A cap of
// 90° or more reaches any foot.
func (w *coverWalk) edgeNear(t Triangle) bool {
	if w.noEdge {
		return false
	}
	p := w.c.Center
	for i := 0; i < 3; i++ {
		a, b := t[i], t[(i+1)%3]
		n := a.Cross(b)
		nn := n.Dot(n)
		if nn == 0 {
			continue // degenerate arc: a point, tested as a vertex
		}
		if np := n.Dot(p); !w.wide && np*np > w.sin2*nn {
			continue
		}
		pa, pb, ab := p.Dot(a), p.Dot(b), a.Dot(b)
		// |n×p| = |pa·b − pb·a| = |n|·(distance of p from n's axis).
		if f := b.Scale(pa).Sub(a.Scale(pb)); f.Dot(f) < 1e-30*nn {
			// p is a pole of the edge's great circle, 90° from all of it.
			if w.wide {
				return true
			}
			continue
		}
		// The foot lies inside the segment iff (a×p)·n ≥ 0 and
		// (p×b)·n ≥ 0; expanded for unit a and b these are the two
		// dot-product forms below.
		if pb-ab*pa >= 0 && pa-ab*pb >= 0 {
			return true
		}
	}
	return false
}

// TrixelSize returns the approximate angular side length in degrees of a
// trixel at the given level (the root edge is 90° and each level halves it).
func TrixelSize(level int) float64 {
	return 90 / math.Pow(2, float64(level))
}

// trixelSizes holds TrixelSize for every level, so that LevelForRadius,
// which runs once per cross-match tuple, makes no math.Pow call.
var trixelSizes = func() (s [MaxLevel + 1]float64) {
	for l := range s {
		s[l] = TrixelSize(l)
	}
	return s
}()

// LevelForRadius returns a subdivision level whose trixels are commensurate
// with a search radius: fine enough that partial trixels do not dominate,
// coarse enough that the cover stays short. It is the level after the
// first whose trixel size is at most the radius, capped at MaxLevel.
func LevelForRadius(radiusDeg float64) int {
	level := 0
	for level < MaxLevel && trixelSizes[level] > radiusDeg {
		level++
	}
	// One extra level tightens the cover boundary considerably.
	if level < MaxLevel {
		level++
	}
	return level
}
