package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"skyquery"
	"skyquery/internal/dataset"
	"skyquery/internal/value"
)

// sample is one verified query of a timed phase.
type sample struct {
	q                 int // pool index
	start, first, end time.Time
	latency, firstRow time.Duration
	drain             time.Duration // first row to last row
	rows              int
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	samples   []sample
	attempted int
	failed    int
	failures  []string // the first few failure messages
	elapsed   time.Duration
	peakHeap  uint64
	kept      map[int]*dataset.DataSet
}

func (p *phase) fail(msg string) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, msg)
	}
}

// runQuery sends one query over the SOAP client path and drains it,
// returning the rows for verification after the clock has stopped.
func runQuery(ctx context.Context, c *skyquery.Client, sql string) (sample, []dataset.Column, [][]value.Value, error) {
	s := sample{start: time.Now()}
	rs, err := c.QueryRows(ctx, sql)
	if err != nil {
		return s, nil, nil, err
	}
	var out [][]value.Value
	for rs.Next() {
		if out == nil {
			s.first = time.Now()
		}
		out = append(out, rs.Row())
	}
	s.end = time.Now()
	err = rs.Err()
	rs.Close()
	if s.first.IsZero() {
		s.first = s.end
	}
	s.latency, s.firstRow, s.drain, s.rows = s.end.Sub(s.start), s.first.Sub(s.start), s.end.Sub(s.first), len(out)
	return s, rs.Columns(), out, err
}

// loopSpec says how long a closed-loop phase runs. Its one client sends
// the next query when the previous one has been drained; queries cycle
// through the pool.
type loopSpec struct {
	duration   time.Duration
	minQueries int           // keep going past duration until this many completed
	maxExtra   time.Duration // but never longer than duration + maxExtra
	once       bool          // run each pool query exactly once (warm-up)
	keep       int           // keep the results of pool queries below this index
}

func runLoop(ctx context.Context, c *skyquery.Client, pool []poolQuery, spec loopSpec) *phase {
	ph := &phase{kept: map[int]*dataset.DataSet{}}
	heap := startHeapSampler()
	start := time.Now()
	deadline, hardStop := start.Add(spec.duration), start.Add(spec.duration+spec.maxExtra)
	for n := 0; ; n++ {
		if spec.once {
			if n >= len(pool) {
				break
			}
		} else if now := time.Now(); now.After(hardStop) || (now.After(deadline) && n >= spec.minQueries) {
			break
		}
		qi := n % len(pool)
		s, cols, rows, err := runQuery(ctx, c, pool[qi].sql)
		s.q = qi
		ph.attempted++
		var got fingerprint
		if err == nil {
			got = fingerprintOf(rows)
		}
		switch {
		case err != nil:
			ph.fail(fmt.Sprintf("query %d: %v", qi, err))
		case got != pool[qi].want:
			ph.fail(fmt.Sprintf("query %d: got %d rows (hash %x), oracle %d rows (hash %x)",
				qi, got.Rows, got.Sum, pool[qi].want.Rows, pool[qi].want.Sum))
		default:
			ph.samples = append(ph.samples, s)
			if qi < spec.keep && ph.kept[qi] == nil {
				ph.kept[qi] = &dataset.DataSet{Columns: cols, Rows: rows}
			}
		}
	}
	ph.elapsed = time.Since(start)
	ph.peakHeap = heap.stop()
	return ph
}

// heapSampler polls the live heap through runtime/metrics, which reads
// without stopping the world, and keeps the maximum.
type heapSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	peak   uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	<-h.done
	return h.peak
}

// readUint64 reads one cumulative runtime/metrics counter.
func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS maps a sample field to milliseconds.
func durationsMS(ss []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(f(s))
	}
	return out
}
