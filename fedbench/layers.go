package main

// The layer timing pass: outside the timed loop, time the public
// functions each layer spends its work in, on the workload's own inputs
// — the per-tuple search caps of its pool queries, its scans, its result
// sets. Each figure is the median over sz.layerReps repetitions.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"skyquery"
	"skyquery/internal/dataset"
	"skyquery/internal/htm"
	"skyquery/internal/sphere"
	"skyquery/internal/sqlparse"
	"skyquery/internal/storage"
	"skyquery/internal/survey"
	"skyquery/internal/xmatch"
)

// layerQueries bounds how many pool queries the per-cap timings replay.
const layerQueries = 8

// pageRows is the federation's default rows per wire page.
const pageRows = 5000

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink int

// chainStep is one step of a pool query's plan, in call order.
type chainStep struct {
	Archive, Alias string
	DropOut        bool
	Sigma          float64
}

// planOrder renders a plan's chain order, e.g. "SDSS -> TWOMASS -> !FIRST".
func planOrder(steps []chainStep) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = s.Archive
		if s.DropOut {
			parts[i] = "!" + s.Archive
		}
	}
	return strings.Join(parts, " -> ")
}

// stepKinds maps each archive of a plan to its step kind.
func stepKinds(steps []chainStep) map[string]string {
	m := map[string]string{}
	for i, s := range steps {
		switch {
		case i == len(steps)-1:
			m[s.Archive] = "seed"
		case s.DropOut:
			m[s.Archive] = "dropout"
		default:
			m[s.Archive] = "extend"
		}
	}
	return m
}

// buildPlans plans every pool query through Federation.BuildPlan (stats
// probes included) and returns the chain orders and per-call times.
func buildPlans(ctx context.Context, f *skyquery.Federation, pool []poolQuery) ([][]chainStep, []float64, error) {
	plans := make([][]chainStep, len(pool))
	times := make([]float64, len(pool))
	for i, q := range pool {
		t0 := time.Now()
		pl, err := f.BuildPlan(ctx, q.sql)
		times[i] = ms(time.Since(t0))
		if err != nil {
			return nil, nil, fmt.Errorf("plan query %d: %w", i, err)
		}
		for _, s := range pl.Steps {
			plans[i] = append(plans[i], chainStep{Archive: s.Archive, Alias: s.Alias, DropOut: s.DropOut, Sigma: s.SigmaArcsec})
		}
	}
	return plans, times, nil
}

// medianOf runs fn reps times and returns the median of its results.
func medianOf(reps int, fn func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = fn()
	}
	return quantile(xs, 0.5)
}

// simCap is one per-tuple search of the replayed chain.
type simCap struct {
	cap   sphere.Cap
	leaf  int
	table *storage.Table
	acc   xmatch.Accumulator
	sigma float64
	cands []sphere.Vec // candidate positions the search gathered
}

// tuple is a partial cross-match tuple of the replayed chain.
type tuple struct {
	acc  xmatch.Accumulator
	keys map[string]survey.Observation // alias -> observation
}

// chainSim is the outcome of replaying pool queries' chains step by step
// with the storage, htm and xmatch functions the nodes call.
type chainSim struct {
	extendCaps, dropCaps []simCap
	tuplesIn, cands      int64
	extendCands, matches int64
	results              []int // final tuple count per replayed query
}

// replayChain runs each query's plan from the seed step back to the
// first: seed tuples are the seed archive's AREA rows passing its local
// predicate; every later step searches a cap of Accumulator.SearchRadius
// around each tuple's best position with Table.SearchCapBatch, folds the
// candidates into the χ² accumulator, and applies the local and
// cross-archive predicates.
func replayChain(archives map[string]*survey.Archive, tables map[string]*storage.Table, pool []poolQuery, plans [][]chainStep, n int) (*chainSim, error) {
	sim := &chainSim{}
	byID := map[string]map[int64]survey.Observation{}
	for name, a := range archives {
		m := make(map[int64]survey.Observation, len(a.Obs))
		for _, o := range a.Obs {
			m[o.ObjectID] = o
		}
		byID[name] = m
	}
	local := func(alias string, o survey.Observation) bool { return alias != "O" || o.Galaxy }
	cross := func(keys map[string]survey.Observation) bool {
		o, okO := keys["O"]
		t, okT := keys["T"]
		return !okO || !okT || o.Flux-t.Flux > 2
	}
	for qi := 0; qi < n && qi < len(pool); qi++ {
		steps, area := plans[qi], pool[qi].area
		seed := steps[len(steps)-1]
		var cur []tuple
		for _, o := range archives[seed.Archive].Obs {
			pos := storedPos(o)
			if area.Contains(pos) && local(seed.Alias, o) {
				cur = append(cur, tuple{acc: xmatch.Accumulator{}.Add(pos, seed.Sigma), keys: map[string]survey.Observation{seed.Alias: o}})
			}
		}
		for si := len(steps) - 2; si >= 0; si-- {
			st := steps[si]
			tbl := tables[st.Archive]
			idCol := tbl.Schema().Index("object_id")
			sb := &storage.SearchBatch{
				Rows:   make([]int, 0, 1024),
				Pos:    make([]sphere.Vec, 0, 1024),
				Accept: func(_ int, pos sphere.Vec) bool { return area.Contains(pos) },
			}
			var next []tuple
			for _, tp := range cur {
				r := tp.acc.SearchRadius(threshold, st.Sigma)
				if r <= 0 {
					continue
				}
				sc := simCap{cap: sphere.CapAround(tp.acc.Best(), r), leaf: tbl.SpatialLevel(), table: tbl, acc: tp.acc, sigma: st.Sigma}
				vetoed := false
				err := tbl.SearchCapBatch(sc.cap, sb, func(rows []int, pos []sphere.Vec) bool {
					for i, row := range rows {
						sc.cands = append(sc.cands, pos[i])
						o := byID[st.Archive][tbl.Value(row, idCol).AsInt()]
						if !local(st.Alias, o) {
							continue
						}
						nacc := tp.acc.Add(pos[i], st.Sigma)
						if !nacc.Matches(threshold) {
							continue
						}
						if st.DropOut {
							vetoed = true
							continue
						}
						keys := make(map[string]survey.Observation, len(tp.keys)+1)
						for k, v := range tp.keys {
							keys[k] = v
						}
						keys[st.Alias] = o
						if cross(keys) {
							next = append(next, tuple{acc: nacc, keys: keys})
							sim.matches++
						}
					}
					return true
				})
				if err != nil {
					return nil, err
				}
				sim.tuplesIn++
				sim.cands += int64(len(sc.cands))
				if st.DropOut {
					sim.dropCaps = append(sim.dropCaps, sc)
					if !vetoed {
						next = append(next, tp)
					}
				} else {
					sim.extendCaps = append(sim.extendCaps, sc)
					sim.extendCands += int64(len(sc.cands))
				}
			}
			cur = next
		}
		sim.results = append(sim.results, len(cur))
	}
	return sim, nil
}

// coverCaps times htm.CoverCap over the caps at the subdivision level a
// search uses, returning µs per cap and the mean range count.
func coverCaps(caps []simCap, reps int) (usPerCap, ranges float64) {
	if len(caps) == 0 {
		return 0, 0
	}
	var total int
	for _, c := range caps {
		total += len(htm.CoverCap(c.cap, subLevel(c.cap, c.leaf), c.leaf).Ranges())
	}
	us := medianOf(reps, func() float64 {
		t0 := time.Now()
		for _, c := range caps {
			htm.CoverCap(c.cap, subLevel(c.cap, c.leaf), c.leaf)
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(caps))
	})
	return us, float64(total) / float64(len(caps))
}

// subLevel is the cover subdivision level a table search picks for a cap:
// htm.LevelForRadius clamped to the leaf level.
func subLevel(c sphere.Cap, leaf int) int {
	if s := htm.LevelForRadius(c.Radius); s < leaf {
		return s
	}
	return leaf
}

// searchCaps times Table.SearchCapBatch over the caps, µs per cap.
func searchCaps(caps []simCap, reps int) (float64, error) {
	if len(caps) == 0 {
		return 0, nil
	}
	sb := &storage.SearchBatch{Rows: make([]int, 0, 1024), Pos: make([]sphere.Vec, 0, 1024)}
	var err error
	us := medianOf(reps, func() float64 {
		t0 := time.Now()
		for _, c := range caps {
			if serr := c.table.SearchCapBatch(c.cap, sb, func(rows []int, _ []sphere.Vec) bool { sink += len(rows); return true }); serr != nil {
				err = serr
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(caps))
	})
	return us, err
}

// foldCands times the χ² fold (Accumulator.Add then Matches) over every
// candidate the caps gathered, ns per candidate.
func foldCands(caps []simCap, reps int) float64 {
	var n int
	for _, c := range caps {
		n += len(c.cands)
	}
	if n == 0 {
		return 0
	}
	return medianOf(reps, func() float64 {
		t0 := time.Now()
		for _, c := range caps {
			for _, p := range c.cands {
				if c.acc.Add(p, c.sigma).Matches(threshold) {
					sink++
				}
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	})
}

// codecTimes encodes results with the columnar encoder in wire-sized pages
// and decodes them back, ns per row each way.
func codecTimes(results []*dataset.DataSet, reps int) (enc, dec float64, err error) {
	var rows int
	for _, r := range results {
		rows += r.NumRows()
	}
	if rows == 0 {
		return 0, 0, nil
	}
	bufs := make([][]byte, len(results))
	enc = medianOf(reps, func() float64 {
		t0 := time.Now()
		for i, r := range results {
			var b bytes.Buffer
			e := dataset.NewColumnarEncoder(&b)
			if werr := e.WriteSchema(r.Columns); werr != nil {
				err = werr
			}
			for off := 0; off < len(r.Rows); off += pageRows {
				end := off + pageRows
				if end > len(r.Rows) {
					end = len(r.Rows)
				}
				if werr := e.WritePage(r.Rows[off:end]); werr != nil {
					err = werr
				}
			}
			if werr := e.Close(); werr != nil {
				err = werr
			}
			bufs[i] = b.Bytes()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(rows)
	})
	dec = medianOf(reps, func() float64 {
		t0 := time.Now()
		for i := range results {
			ds, derr := dataset.DecodeColumnar(bytes.NewReader(bufs[i]))
			if derr != nil {
				err = derr
			} else if ds.NumRows() != results[i].NumRows() {
				err = fmt.Errorf("decoded %d rows, encoded %d", ds.NumRows(), results[i].NumRows())
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(rows)
	})
	return enc, dec, err
}

// parseTimes times sqlparse.Parse over the pool, µs per query.
func parseTimes(pool []poolQuery, reps int) float64 {
	return medianOf(reps, func() float64 {
		t0 := time.Now()
		for _, q := range pool {
			sqlparse.Parse(q.sql)
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(pool))
	})
}

// coneCaps wraps the pool's AREA caps as searches over the store table.
func coneCaps(pool []poolQuery, t *storage.Table, n int) []simCap {
	var caps []simCap
	for i := 0; i < n && i < len(pool); i++ {
		caps = append(caps, simCap{cap: pool[i].area, leaf: t.SpatialLevel(), table: t})
	}
	return caps
}

// selectTimes times Table.Select on the node-side form of the pool's
// pass-through scans, ms per query.
func selectTimes(pool []poolQuery, t *storage.Table, n, reps int) (float64, error) {
	type sel struct {
		q   *sqlparse.Query
		reg sphere.Region
	}
	var sels []sel
	for i := 0; i < n && i < len(pool); i++ {
		q, err := sqlparse.Parse(strings.Replace(pool[i].sql, "SDSS:", "", 1))
		if err != nil {
			return 0, err
		}
		sels = append(sels, sel{q: q, reg: pool[i].area})
	}
	var err error
	v := medianOf(reps, func() float64 {
		t0 := time.Now()
		for i, s := range sels {
			res, serr := t.Select(s.q.From[0].Name(), s.q, s.reg)
			if serr != nil {
				err = serr
			} else if len(res.Rows) != pool[i].want.Rows {
				err = fmt.Errorf("select returned %d rows, oracle %d", len(res.Rows), pool[i].want.Rows)
			}
		}
		return ms(time.Since(t0)) / float64(len(sels))
	})
	return v, err
}

// setupPhases times the in-memory set-up of the cross-match workloads
// outside Launch: field generation plus observation, and loading each of
// the federation's archives (or each shard of it) into an indexed
// database. It returns unsharded tables of the archives for the chain
// replay.
func setupPhases(seed int64, sz sizes, shards int, archives map[string]*survey.Archive) (gen, build time.Duration, tables map[string]*storage.Table, err error) {
	t0 := time.Now()
	field := skyquery.GenerateField(sphere.NewCap(fieldRA, fieldDec, fieldRadiusDeg), sz.bodies, galaxyFraction, seed)
	for _, cfg := range skyquery.DefaultSurveys() {
		survey.Observe(field, cfg)
	}
	gen = time.Since(t0)

	t0 = time.Now()
	for _, a := range archives {
		parts := []survey.ShardPart{{Archive: a}}
		if shards > 1 {
			parts = a.Partition(shards)
		}
		for _, part := range parts {
			if _, err = part.Archive.BuildDB(); err != nil {
				return
			}
		}
	}
	build = time.Since(t0)

	tables = map[string]*storage.Table{}
	for name, a := range archives {
		db, berr := a.BuildDB()
		if berr != nil {
			err = berr
			return
		}
		tables[name], _ = db.Table(survey.TableName)
	}
	return
}
