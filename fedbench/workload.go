package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"skyquery"
	"skyquery/internal/nettrace"
	"skyquery/internal/sphere"
	"skyquery/internal/storage"
	"skyquery/internal/survey"
	"skyquery/internal/value"
)

// The sky field every workload draws from: a 1° cap around the paper's
// example position. Query AREA centres are placed so that the whole AREA
// lies inside the field, which keeps the work per query uniform.
const (
	fieldRA, fieldDec, fieldRadiusDeg = 185.0, -0.5, 1.0
	galaxyFraction                    = 0.4
	xmatchAreaArcsec                  = 900
	coneAreaArcsec                    = 1800
	threshold                         = 3.5
)

// workload is one federation shape plus the query pool it runs, driven
// by one client. The reasons are repeated in BENCHMARK.json.
type workload struct {
	name   string
	shards int  // trixel-range shards per archive (0 = one node per archive)
	cone   bool // pass-through AREA scan over a disk-backed SDSS store
}

var workloads = []workload{
	// The paper's query on the paper's layout: seed, extend and drop-out
	// steps all run, and the per-tuple HTM cover and χ² fold dominate.
	{name: "xmatch_flat"},
	// The same queries over 8 shards per archive: adds portal scatter and
	// merge and the N× tuple forwarding that tuple routing should remove.
	{name: "xmatch_shard8", shards: 8},
	// Bulk area scans over cold disk blocks with no chain at all: the
	// workload on which cross-match optimisations should change nothing.
	{name: "cone_scan", cone: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes scales a run. The smoke test shrinks every field.
type sizes struct {
	bodies     int           // true bodies in the field
	pool       int           // distinct queries, cycled; the first cycle is warm-up
	setups     int           // set-ups per run; setup_s is their median
	minQueries int           // timed queries per phase, at least
	maxExtra   time.Duration // how far a phase may overrun its seconds to reach minQueries
	layerReps  int           // repetitions of each layer timing; the median is reported
}

var fullSizes = sizes{bodies: 32000, pool: 32, setups: 3, minQueries: 100, maxExtra: 60 * time.Second, layerReps: 5}

// poolQuery is one distinct query of a run's pool with its reference
// fingerprint, computed before any timing.
type poolQuery struct {
	sql  string
	area sphere.Cap
	want fingerprint
}

// makePool places the pool's AREA centres on a sunflower lattice over
// the field, turned by a seeded angle and jittered per point. The lattice
// spreads every seed's pool evenly over the field, so the mix of cheap
// and dear queries (and of shards touched) hardly moves between seeds,
// while each seed still gets its own distinct queries. Centres are
// formatted once and parsed back, so the oracle and the federation see
// the same doubles.
func makePool(w workload, seed int64, n int) []poolQuery {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	radius := float64(xmatchAreaArcsec)
	if w.cone {
		radius = coneAreaArcsec
	}
	maxOff := fieldRadiusDeg - sphere.Arcsec(radius) - 0.05
	turn := 2 * math.Pi * rng.Float64()
	golden := math.Pi * (3 - math.Sqrt(5))
	pool := make([]poolQuery, n)
	for i := range pool {
		off := maxOff * math.Sqrt((float64(i)+0.5)/float64(n))
		ang := turn + golden*float64(i)
		jr, ja := 0.04*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
		dec := fieldDec + off*math.Sin(ang) + jr*math.Sin(ja)
		ra := fieldRA + (off*math.Cos(ang)+jr*math.Cos(ja))/math.Cos(dec*math.Pi/180)
		raS, decS := strconv.FormatFloat(ra, 'f', 6, 64), strconv.FormatFloat(dec, 'f', 6, 64)
		ra, _ = strconv.ParseFloat(raS, 64)
		dec, _ = strconv.ParseFloat(decS, 64)
		var sql string
		if w.cone {
			sql = fmt.Sprintf("SELECT object_id, ra, dec, flux, type FROM SDSS:PhotoObject WHERE AREA(%s, %s, %d) AND flux > 0", raS, decS, coneAreaArcsec)
		} else {
			sql = fmt.Sprintf("SELECT O.object_id, T.object_id FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T, FIRST:PhotoObject P "+
				"WHERE AREA(%s, %s, %d) AND XMATCH(O, T, !P) < %g AND O.type = 'GALAXY' AND (O.flux - T.flux) > 2",
				raS, decS, xmatchAreaArcsec, threshold)
		}
		pool[i] = poolQuery{sql: sql, area: sphere.NewCap(ra, dec, sphere.Arcsec(radius))}
	}
	return pool
}

// fed is one running federation of a workload.
type fed struct {
	f        *skyquery.Federation
	archives map[string]*survey.Archive
	store    *storage.Store // cone_scan: the reopened disk store SDSS serves
	storeDir string

	// Set-up phases, as timed while building it.
	generate, build time.Duration
	userBytes       int64 // logical bytes ingested into the store
}

func (d *fed) close() {
	d.f.Close()
	if d.store != nil {
		d.store.Close()
	}
	if d.storeDir != "" {
		os.RemoveAll(d.storeDir)
	}
}

// setUp launches the workload's federation from the seed and returns
// once the first query can be sent. The per-host throughput registry is
// cleared first, so no earlier federation's measured links steer this
// one's cost-based plans. A non-nil tracer receives the portal and node
// events.
func setUp(w workload, seed int64, sz sizes, workDir string, tr *tracer) (*fed, error) {
	nettrace.ResetThroughput()
	region := sphere.NewCap(fieldRA, fieldDec, fieldRadiusDeg)
	opts := []skyquery.Option{skyquery.WithSeed(seed)}
	if tr != nil {
		opts = append(opts, skyquery.WithPortalEvents(tr.portalEvent), skyquery.WithNodeEvents(tr.nodeEvent))
	}
	if !w.cone {
		opts = append(opts, skyquery.WithRegion(region), skyquery.WithBodies(sz.bodies), skyquery.WithGalaxyFraction(galaxyFraction))
		if w.shards > 0 {
			opts = append(opts, skyquery.WithShards(w.shards))
		}
		f, err := skyquery.LaunchWith(opts...)
		if err != nil {
			return nil, err
		}
		return &fed{f: f, archives: f.Archives}, nil
	}

	d := &fed{archives: map[string]*survey.Archive{}}
	t0 := time.Now()
	spec := skyquery.DefaultSurveys()[0]
	a := survey.Observe(skyquery.GenerateField(region, sz.bodies, galaxyFraction, seed), spec)
	d.archives[spec.Name] = a
	d.generate = time.Since(t0)

	t0 = time.Now()
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	d.storeDir = dir
	if d.userBytes, err = ingest(dir, a); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if d.store, err = storage.OpenStore(dir, storage.StoreOptions{}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.build = time.Since(t0)
	opts = append(opts, skyquery.WithNodes(skyquery.NodeSpec{
		Name: spec.Name, DB: d.store.DB(), PrimaryTable: survey.TableName,
		RACol: "ra", DecCol: "dec", SigmaArcsec: spec.SigmaArcsec,
	}))
	if d.f, err = skyquery.LaunchWith(opts...); err != nil {
		d.store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return d, nil
}

// ingest appends the archive to a new disk-backed store in canonical
// trixel order, seals it and closes it: the write path (appends, WAL,
// block seal). It returns the logical bytes appended.
func ingest(dir string, a *survey.Archive) (int64, error) {
	st, err := storage.OpenStore(dir, storage.StoreOptions{})
	if err != nil {
		return 0, err
	}
	t, err := st.Create(survey.TableName, survey.Schema(), &storage.SpatialConfig{RACol: "ra", DecCol: "dec"})
	if err != nil {
		st.Close()
		return 0, err
	}
	var user int64
	for _, o := range a.SortedObs() {
		row := obsRow(o)
		user += rowBytes(row)
		if err := t.Append(row...); err != nil {
			st.Close()
			return 0, err
		}
	}
	if err := st.Flush(); err != nil {
		st.Close()
		return 0, err
	}
	return user, st.Close()
}

// obsRow renders an observation as a row of survey.Schema, exactly as
// survey.Archive.BuildDB loads it.
func obsRow(o survey.Observation) []value.Value {
	ra, dec := o.Pos.RaDec()
	typ := "STAR"
	if o.Galaxy {
		typ = "GALAXY"
	}
	return []value.Value{
		value.Int(o.ObjectID), value.Int(o.BodyID), value.Float(ra), value.Float(dec),
		value.Float(o.Flux), value.String(typ), value.Null,
	}
}

// rowBytes is a row's logical size: 8 bytes per number, the length of
// each string, nothing for NULL.
func rowBytes(row []value.Value) int64 {
	var n int64
	for _, v := range row {
		switch v.Type() {
		case value.IntType, value.FloatType:
			n += 8
		case value.StringType:
			n += int64(len(v.AsString()))
		case value.BoolType:
			n++
		}
	}
	return n
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
