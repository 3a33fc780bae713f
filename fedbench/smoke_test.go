package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

var tinySizes = sizes{bodies: 2000, pool: 3, setups: 1, minQueries: 4, maxExtra: 10 * time.Second, layerReps: 1}

type benchSpec struct {
	Workloads []struct {
		Name, Why string
	}
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each emits every metric BENCHMARK.json names, with its
// unit, and that every answer matched the oracle.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); got != strings.Join(names, ", ") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %s", names, got)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layer
			}
			res, err := run(context.Background(), w, 7, 300*time.Millisecond, traced, tinySizes, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, name := range sortedKeys(want) {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", w.name, traced, name)
				case m.Unit == "" || m.Unit != want[name]:
					t.Errorf("%s traced=%t: metric %s unit %q, BENCHMARK.json says %q", w.name, traced, name, m.Unit, want[name])
				}
			}
		}
	}
}

// TestCheckerRejectsCorruptFingerprint corrupts one reference
// fingerprint and expects exactly that query to count as failed.
func TestCheckerRejectsCorruptFingerprint(t *testing.T) {
	for _, w := range workloads {
		d, err := setUp(w, 7, tinySizes, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		pool := makePool(w, 7, tinySizes.pool)
		computeOracle(w, d.archives, pool)
		c := d.f.Client()
		if ph := runLoop(context.Background(), c, pool, loopSpec{once: true}); ph.failed != 0 {
			t.Errorf("%s: %d of %d answers failed the intact oracle: %v", w.name, ph.failed, ph.attempted, ph.failures)
		}
		pool[1].want.Sum ^= 1
		ph := runLoop(context.Background(), c, pool, loopSpec{once: true})
		if ph.failed != 1 || ph.attempted != len(pool) {
			t.Errorf("%s: corrupted fingerprint: %d of %d failed, want 1", w.name, ph.failed, ph.attempted)
		}
		d.close()
	}
}

// TestShortPhaseFails expects a timed phase that cannot reach its
// minimum query count to fail the run instead of reporting percentiles
// from too few samples.
func TestShortPhaseFails(t *testing.T) {
	sz := tinySizes
	sz.minQueries, sz.maxExtra = 1<<20, 0
	res, err := run(context.Background(), workloads[0], 7, 100*time.Millisecond, false, sz, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("short phase: correct=%t failed=%d, want a failed run with one failure", res.Correct, res.Failed)
	}
}
