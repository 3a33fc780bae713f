// Command fedbench is the federation's end-to-end benchmark. It builds a
// workload's federation in-process from a seed, drives it closed-loop
// over the full SOAP client path (Client.QueryRows), checks every answer
// against an independent oracle, and prints every metric by name and
// unit; the last line of standard output is the JSON result.
//
//	fedbench --workload xmatch_flat --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it instead splits the timed seconds between an untraced phase, around
// which it reads counters, and a traced phase on a second federation of
// the same seed with the portal and node event hooks installed. It
// attributes the traced requests' wall time to layers from spans
// recorded around the calls into each layer, times the layers' public
// functions on the workload's own inputs, and reports the per-layer
// metrics. Spans and a text report are written under --out/results.
//
// Metrics named *_per_query are means over the phase's queries; other
// times are medians. A per-layer metric reads 0 on a workload whose
// queries never do that layer's work (no chain on cone_scan, no disk
// store on the cross-match workloads).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"skyquery/internal/dataset"
	"skyquery/internal/storage"
	"skyquery/internal/survey"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits and layerUnits name every metric the benchmark emits, with its
// unit; BENCHMARK.json lists the same names.
var e2eUnits = map[string]string{
	"setup_s":              "s",
	"latency_p50_ms":       "ms",
	"latency_p90_ms":       "ms",
	"first_row_p50_ms":     "ms",
	"throughput_qps":       "1/s",
	"wire_bytes_per_query": "bytes",
	"peak_heap_mb":         "MB",
}

var layerUnits = map[string]string{
	"sqlparse.parse_us":                      "us",
	"portal.plan_ms":                         "ms",
	"portal.plan_cache_hit_ratio":            "ratio",
	"portal.self_ms":                         "ms",
	"portal.node_calls_per_query":            "count",
	"skynode.seed_ms":                        "ms",
	"skynode.extend_ms":                      "ms",
	"skynode.dropout_ms":                     "ms",
	"skynode.self_ms":                        "ms",
	"skynode.tuples_in_per_query":            "count",
	"skynode.tuples_out_per_query":           "count",
	"htm.cover_us_per_cap":                   "us",
	"htm.ranges_per_cap":                     "count",
	"storage.search_cap_us":                  "us",
	"storage.cand_rows_per_tuple_in":         "count",
	"xmatch.match_ratio":                     "ratio",
	"xmatch.fold_ns_per_candidate":           "ns",
	"storage.area_select_ms":                 "ms",
	"storage.zone_blocks_pruned_per_query":   "count",
	"storage.pred_rows_evaluated_per_query":  "count",
	"storage.cold_blocks_hydrated_per_query": "count",
	"storage.block_lookups_per_row":          "count",
	"net.client_portal.bytes_per_query":      "bytes",
	"net.client_portal.calls_per_query":      "count",
	"net.client_portal.ms_per_query":         "ms",
	"net.portal_node.bytes_per_query":        "bytes",
	"net.portal_node.calls_per_query":        "count",
	"net.portal_node.ms_per_query":           "ms",
	"net.node_node.bytes_per_query":          "bytes",
	"net.node_node.calls_per_query":          "count",
	"net.node_node.ms_per_query":             "ms",
	"wire.self_ms":                           "ms",
	"wire.encode_ns_per_row":                 "ns",
	"wire.decode_ns_per_row":                 "ns",
	"client.drain_ms":                        "ms",
	"go.alloc_bytes_per_query":               "bytes",
	"setup.generate_s":                       "s",
	"setup.build_s":                          "s",
	"storage.bytes_on_disk_per_user_byte":    "ratio",
	"trace.unattributed_share":               "ratio",
	"trace.overhead_ms":                      "ms",
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for results and the disk store")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fedbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, fullSizes, *out, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// counters are the process-global and per-node counters read as deltas
// around a phase.
type counters struct {
	zonePruned, predRows, coldHydrated, cacheLookups int64
	tuplesIn, tuplesOut                              int64
	wireBytes                                        int64
	planHits, planMisses                             int64
	allocBytes                                       uint64
}

func readCounters(d *fed) counters {
	c := counters{
		zonePruned:   storage.ZoneBlocksPruned(),
		predRows:     storage.PredRowsEvaluated(),
		coldHydrated: storage.ColdBlocksHydrated(),
		cacheLookups: storage.BlockCacheHits() + storage.BlockCacheMisses(),
		wireBytes:    d.f.Transport.Stats().Total(),
		allocBytes:   readUint64("/gc/heap/allocs:bytes"),
	}
	for _, n := range d.f.Nodes {
		_, in, out := n.Stats()
		c.tuplesIn += in
		c.tuplesOut += out
	}
	ps := d.f.Portal.PlanCacheStats()
	c.planHits, c.planMisses = ps.Hits, ps.Misses
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		zonePruned: c.zonePruned - o.zonePruned, predRows: c.predRows - o.predRows,
		coldHydrated: c.coldHydrated - o.coldHydrated, cacheLookups: c.cacheLookups - o.cacheLookups,
		tuplesIn: c.tuplesIn - o.tuplesIn, tuplesOut: c.tuplesOut - o.tuplesOut,
		wireBytes: c.wireBytes - o.wireBytes, planHits: c.planHits - o.planHits,
		planMisses: c.planMisses - o.planMisses, allocBytes: c.allocBytes - o.allocBytes,
	}
}

// run executes one workload run and returns its result; failures of the
// program (wrong answers, errors, flipped plans, short phases) are
// counted in the result, failures of the benchmark itself are returned
// as errors.
func run(ctx context.Context, w workload, seed int64, dur time.Duration, traced bool, sz sizes, outDir string, log io.Writer) (*result, error) {
	resDir, workDir := filepath.Join(outDir, "results"), filepath.Join(outDir, "work")
	for _, dir := range []string{resDir, workDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	var rep strings.Builder
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(&rep, format+"\n", args...)
	}
	logf("fedbench %s seed %d, %s timed, trace %t", w.name, seed, dur, traced)
	pool := makePool(w, seed, sz.pool)

	// Set up several times; setup_s is the median. The last federation
	// serves the run.
	var setups, gens, builds []float64
	var d *fed
	for i := 0; i < sz.setups; i++ {
		t0 := time.Now()
		nd, err := setUp(w, seed, sz, workDir, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens, builds = append(gens, nd.generate.Seconds()), append(builds, nd.build.Seconds())
		if d != nil {
			d.close()
		}
		d = nd
	}
	defer d.close()
	logf("set-up times (s): %.4f; setup_s is their median", setups)
	computeOracle(w, d.archives, pool)
	res := &result{Correct: true, Metrics: map[string]metric{}}

	// A traced run splits its time between an untraced phase on this
	// federation and a traced phase on a second one, of the same seed,
	// with the event hooks installed. Counters, allocations and the
	// untraced latency come from the first, where no hook formats events.
	// It keeps a few warm-up results for the codec timings.
	spec := loopSpec{duration: dur, minQueries: sz.minQueries, maxExtra: sz.maxExtra}
	keep := 0
	if traced {
		spec.duration, keep = dur/2, 4
	}
	if w.cone {
		logf("store: default StoreOptions (WAL appends not fsynced, sealed blocks fsynced, 16 hot blocks, 64 cached column blocks)")
	}
	un, err := serve(ctx, w, d, pool, spec, keep, nil, res, logf)
	if err != nil {
		return nil, err
	}

	if !traced {
		timed := un.timed
		lat := durationsMS(timed.samples, func(s sample) time.Duration { return s.latency })
		put := func(name string, v float64) { res.Metrics[name] = metric{v, e2eUnits[name]} }
		put("setup_s", quantile(setups, 0.5))
		put("latency_p50_ms", quantile(lat, 0.5))
		put("latency_p90_ms", quantile(lat, 0.9))
		put("first_row_p50_ms", quantile(durationsMS(timed.samples, func(s sample) time.Duration { return s.firstRow }), 0.5))
		put("throughput_qps", float64(len(timed.samples))/timed.elapsed.Seconds())
		put("wire_bytes_per_query", float64(un.delta.wireBytes)/float64(timed.attempted))
		put("peak_heap_mb", float64(timed.peakHeap)/(1<<20))
	} else {
		tr := newTracer()
		dt, err := setUp(w, seed, sz, workDir, tr)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		defer dt.close()
		tr.learn(dt.f.PortalURL, dt.f.NodeURLs)
		dt.f.Transport.Base = tr
		tp, err := serve(ctx, w, dt, pool, spec, 0, tr, res, logf)
		if err != nil {
			return nil, err
		}
		calls, events := tr.snapshot()
		var bds []breakdown
		var steps []stepSpan
		for _, s := range tp.timed.samples {
			var kinds map[string]string
			if tp.plans != nil {
				kinds = stepKinds(tp.plans[s.q])
			}
			bd, st := attribute(tr.at(s.start), tr.at(s.end), calls, events, kinds)
			bds = append(bds, bd)
			steps = append(steps, st...)
		}
		if err := layerMetrics(w, seed, sz, dt, pool, un, tp.timed.samples, bds, gens, builds, res, logf); err != nil {
			return nil, err
		}
		base := filepath.Join(resDir, fmt.Sprintf("%s-seed%d", w.name, seed))
		if err := writeSpans(base+".spans.jsonl", tr, tp.timed.samples, calls, events, steps); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	logf("failed_frac %.4f (%d of %d attempted, warm-up and plan checks included)", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)

	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		logf("  %-40s %14.6g %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprint(log, rep.String())
	suffix := "e2e"
	if traced {
		suffix = "layers"
	}
	path := filepath.Join(resDir, fmt.Sprintf("%s-seed%d-%s.txt", w.name, seed, suffix))
	if err := os.WriteFile(path, []byte(rep.String()), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// served is what one federation's warm-up and timed phase gave.
type served struct {
	warm, timed *phase
	delta       counters      // read around the timed phase
	plans       [][]chainStep // each pool query's chain after warm-up; nil on cone_scan
	planMS      []float64     // BuildPlan times at the end
}

// serve runs a warm-up cycle and a timed phase on d, then checks that no
// chain order moved between them. Failures, including a timed phase that
// verified fewer than spec.minQueries queries, count in res. With a
// tracer, the timed phase and only it is traced.
func serve(ctx context.Context, w workload, d *fed, pool []poolQuery, spec loopSpec, keep int, tr *tracer,
	res *result, logf func(string, ...interface{})) (*served, error) {
	what := "untraced"
	if tr != nil {
		what = "traced"
	}
	count := func(ph *phase, phase string) {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, f := range ph.failures {
			logf("FAILED (%s %s): %s", what, phase, f)
		}
	}
	c := d.f.Client()
	sv := &served{}
	sv.warm = runLoop(ctx, c, pool, loopSpec{once: true, keep: keep})
	count(sv.warm, "warm-up")
	if !w.cone {
		var err error
		if sv.plans, _, err = buildPlans(ctx, d.f, pool); err != nil {
			return nil, err
		}
	}

	before := readCounters(d)
	if tr != nil {
		tr.on.Store(true)
	}
	sv.timed = runLoop(ctx, c, pool, spec)
	if tr != nil {
		tr.on.Store(false)
	}
	sv.delta = readCounters(d).minus(before)
	count(sv.timed, "timed")
	t := sv.timed
	lat := durationsMS(t.samples, func(s sample) time.Duration { return s.latency })
	logf("%s phase: %d queries, 1 client closed loop, %s; %d verified against the oracle, %d failed",
		what, t.attempted, t.elapsed.Round(time.Millisecond), len(t.samples), t.failed)
	logf("  latency p50 %.3f ms, p90 %.3f ms (%d samples, %d beyond p90)", quantile(lat, 0.5), quantile(lat, 0.9), len(lat), len(lat)/10)
	if len(t.samples) < spec.minQueries {
		res.Attempted++
		res.Failed++
		logf("FAILED (%s): %d queries verified in %s, fewer than the %d the percentiles need",
			what, len(t.samples), t.elapsed.Round(time.Millisecond), spec.minQueries)
	}

	// Chain orders must not have moved between warm-up and the end.
	if !w.cone {
		end, times, err := buildPlans(ctx, d.f, pool)
		if err != nil {
			return nil, err
		}
		sv.planMS = times
		orders := map[string]int{}
		for i := range pool {
			orders[planOrder(sv.plans[i])]++
		}
		logf("  chain orders after warm-up: %v", orders)
		for i := range pool {
			if a, b := planOrder(sv.plans[i]), planOrder(end[i]); a != b {
				res.Attempted++
				res.Failed++
				logf("FAILED (%s): query %d chain order flipped from %s to %s", what, i, a, b)
			}
		}
	}
	return sv, nil
}

// layerMetrics fills in the per-layer metrics of a traced run: counters
// and allocations read around the untraced phase, self times from the
// traced phase's spans, and the layer timing pass on d, the traced
// federation.
func layerMetrics(w workload, seed int64, sz sizes, d *fed, pool []poolQuery, un *served, traced []sample,
	bds []breakdown, gens, builds []float64, res *result, logf func(string, ...interface{})) error {
	put := func(name string, v float64) { res.Metrics[name] = metric{v, layerUnits[name]} }
	for k := range layerUnits {
		put(k, 0)
	}
	untraced, delta := un.timed.samples, un.delta
	if len(untraced) == 0 || len(bds) == 0 {
		return fmt.Errorf("traced run verified %d untraced and %d traced queries; need both", len(untraced), len(bds))
	}
	n := float64(un.timed.attempted)
	var rows int64
	for _, s := range untraced {
		rows += int64(s.rows)
	}
	put("portal.plan_cache_hit_ratio", ratio(float64(delta.planHits), float64(delta.planHits+delta.planMisses)))
	put("skynode.tuples_in_per_query", float64(delta.tuplesIn)/n)
	put("skynode.tuples_out_per_query", float64(delta.tuplesOut)/n)
	put("storage.zone_blocks_pruned_per_query", float64(delta.zonePruned)/n)
	put("storage.pred_rows_evaluated_per_query", float64(delta.predRows)/n)
	put("storage.cold_blocks_hydrated_per_query", float64(delta.coldHydrated)/n)
	put("storage.block_lookups_per_row", ratio(float64(delta.cacheLookups), float64(rows)))
	put("go.alloc_bytes_per_query", float64(delta.allocBytes)/n)
	put("client.drain_ms", quantile(durationsMS(untraced, func(s sample) time.Duration { return s.drain }), 0.5))
	put("sqlparse.parse_us", parseTimes(pool, sz.layerReps))
	if un.planMS != nil {
		put("portal.plan_ms", quantile(un.planMS, 0.5))
	}

	// Self times and links from the traced queries' spans.
	per := func(f func(breakdown) float64) []float64 {
		out := make([]float64, len(bds))
		for i, b := range bds {
			out[i] = f(b)
		}
		return out
	}
	nsMS := func(ns int64) float64 { return float64(ns) / 1e6 }
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	put("portal.self_ms", quantile(per(func(b breakdown) float64 { return nsMS(b.portal) }), 0.5))
	put("skynode.self_ms", quantile(per(func(b breakdown) float64 { return nsMS(b.skynode) }), 0.5))
	put("wire.self_ms", quantile(per(func(b breakdown) float64 { return nsMS(b.wire) }), 0.5))
	put("portal.node_calls_per_query", mean(per(func(b breakdown) float64 { return float64(b.portalNodeCalls) })))
	for _, k := range []string{"seed", "extend", "dropout"} {
		put("skynode."+k+"_ms", quantile(per(func(b breakdown) float64 { return nsMS(b.steps[k]) }), 0.5))
	}
	for _, l := range []string{"client_portal", "portal_node", "node_node"} {
		get := func(f func(*linkTotal) int64) float64 {
			return mean(per(func(b breakdown) float64 {
				if lt := b.links[l]; lt != nil {
					return float64(f(lt))
				}
				return 0
			}))
		}
		put("net."+l+".bytes_per_query", get(func(lt *linkTotal) int64 { return lt.bytes }))
		put("net."+l+".calls_per_query", get(func(lt *linkTotal) int64 { return lt.calls }))
		put("net."+l+".ms_per_query", get(func(lt *linkTotal) int64 { return lt.ns })/1e6)
	}
	var wall, unattr int64
	for _, b := range bds {
		wall += b.wall
		unattr += b.unattributed
	}
	put("trace.unattributed_share", ratio(float64(unattr), float64(wall)))
	tracedP50 := quantile(durationsMS(traced, func(s sample) time.Duration { return s.latency }), 0.5)
	untracedP50 := quantile(durationsMS(untraced, func(s sample) time.Duration { return s.latency }), 0.5)
	put("trace.overhead_ms", tracedP50-untracedP50)

	meanMS := func(f func(breakdown) int64) float64 {
		return mean(per(func(b breakdown) float64 { return nsMS(f(b)) }))
	}
	logf("%d traced and %d untraced queries; wall time per traced request attributed to layers:", len(bds), len(untraced))
	logf("  medians: portal %.3f ms, skynode %.3f ms, wire %.3f ms", res.Metrics["portal.self_ms"].Value, res.Metrics["skynode.self_ms"].Value, res.Metrics["wire.self_ms"].Value)
	logf("  means:   portal %.3f + skynode %.3f + wire %.3f + unattributed %.3f = wall %.3f ms (unattributed %.2f%% of request wall time)",
		meanMS(func(b breakdown) int64 { return b.portal }), meanMS(func(b breakdown) int64 { return b.skynode }),
		meanMS(func(b breakdown) int64 { return b.wire }), meanMS(func(b breakdown) int64 { return b.unattributed }),
		meanMS(func(b breakdown) int64 { return b.wall }), 100*res.Metrics["trace.unattributed_share"].Value)
	logf("  step self time: seed %.3f ms, extend %.3f ms, dropout %.3f ms",
		res.Metrics["skynode.seed_ms"].Value, res.Metrics["skynode.extend_ms"].Value, res.Metrics["skynode.dropout_ms"].Value)
	logf("tracing overhead: traced p50 %.3f ms (hooks and spans) - untraced p50 %.3f ms (no hooks) = %.3f ms", tracedP50, untracedP50, tracedP50-untracedP50)

	// The layer timing pass, on the workload's own inputs.
	var kept []*dataset.DataSet
	for i := 0; i < 4; i++ {
		if ds := un.warm.kept[i]; ds != nil {
			kept = append(kept, ds)
		}
	}
	enc, dec, err := codecTimes(kept, sz.layerReps)
	if err != nil {
		return fmt.Errorf("codec timing: %w", err)
	}
	put("wire.encode_ns_per_row", enc)
	put("wire.decode_ns_per_row", dec)

	if w.cone {
		t, ok := d.store.DB().Table(survey.TableName)
		if !ok {
			return fmt.Errorf("store has no %s table", survey.TableName)
		}
		caps := coneCaps(pool, t, layerQueries)
		cover, ranges := coverCaps(caps, sz.layerReps)
		put("htm.cover_us_per_cap", cover)
		put("htm.ranges_per_cap", ranges)
		search, err := searchCaps(caps, sz.layerReps)
		if err != nil {
			return fmt.Errorf("search timing: %w", err)
		}
		put("storage.search_cap_us", search)
		sel, err := selectTimes(pool, t, layerQueries, sz.layerReps)
		if err != nil {
			return fmt.Errorf("select timing: %w", err)
		}
		put("storage.area_select_ms", sel)
		put("setup.generate_s", quantile(gens, 0.5))
		put("setup.build_s", quantile(builds, 0.5))
		disk, err := dirBytes(d.storeDir)
		if err != nil {
			return err
		}
		put("storage.bytes_on_disk_per_user_byte", ratio(float64(disk), float64(d.userBytes)))
		return nil
	}

	gen, build, tables, err := setupPhases(seed, sz, w.shards, d.archives)
	if err != nil {
		return fmt.Errorf("set-up phases: %w", err)
	}
	put("setup.generate_s", gen.Seconds())
	put("setup.build_s", build.Seconds())
	sim, err := replayChain(d.archives, tables, pool, un.plans, layerQueries)
	if err != nil {
		return fmt.Errorf("chain replay: %w", err)
	}
	for i, got := range sim.results {
		if got != pool[i].want.Rows {
			return fmt.Errorf("chain replay of query %d gives %d tuples, oracle %d", i, got, pool[i].want.Rows)
		}
	}
	all := append(append([]simCap(nil), sim.extendCaps...), sim.dropCaps...)
	cover, ranges := coverCaps(all, sz.layerReps)
	put("htm.cover_us_per_cap", cover)
	put("htm.ranges_per_cap", ranges)
	search, err := searchCaps(all, sz.layerReps)
	if err != nil {
		return fmt.Errorf("search timing: %w", err)
	}
	put("storage.search_cap_us", search)
	put("storage.cand_rows_per_tuple_in", ratio(float64(sim.cands), float64(sim.tuplesIn)))
	put("xmatch.match_ratio", ratio(float64(sim.matches), float64(sim.extendCands)))
	put("xmatch.fold_ns_per_candidate", foldCands(all, sz.layerReps))
	nq := float64(len(sim.results))
	extendCoverMS := float64(len(sim.extendCaps)) / nq * cover / 1e3
	logf("layer pass (chains replayed on unsharded tables) over %d queries: %.0f extend caps and %.0f drop-out caps per query, %.1f candidates per tuple in",
		len(sim.results), float64(len(sim.extendCaps))/nq, float64(len(sim.dropCaps))/nq, ratio(float64(sim.cands), float64(sim.tuplesIn)))
	if ext := res.Metrics["skynode.extend_ms"].Value; ext > 0 {
		logf("htm cover: %.3f us/cap x %.0f extend caps/query = %.3f ms of CPU, %.0f%% of skynode.extend_ms (%.3f ms of wall time; the step runs on GOMAXPROCS=%d workers)",
			cover, float64(len(sim.extendCaps))/nq, extendCoverMS, 100*extendCoverMS/ext, ext, runtime.GOMAXPROCS(0))
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
