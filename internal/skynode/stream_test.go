package skynode

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"skyquery/internal/dataset"
	"skyquery/internal/plan"
	"skyquery/internal/soap"
	"skyquery/internal/survey"
	"skyquery/internal/value"
)

// drainStream issues req to endpoint as a streamed call and drains every
// page, returning the schema, the rows and the page count.
func drainStream(endpoint, action string, req interface{}) (*dataset.DataSet, int, error) {
	st, err := soap.OpenStream(context.Background(), &soap.Client{}, endpoint, action, req)
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	ds := &dataset.DataSet{Columns: st.Columns()}
	pages := 0
	for {
		page, err := st.Next()
		if err != nil {
			return ds, pages, err
		}
		if page == nil {
			return ds, pages, nil
		}
		pages++
		ds.Rows = append(ds.Rows, page...)
	}
}

// foldedCall issues req to endpoint as a folded call and drains every
// chunk into one data set.
func foldedCall(endpoint, action string, req interface{}) (*dataset.DataSet, error) {
	c := &soap.Client{}
	var first soap.ChunkedData
	if err := c.Call(context.Background(), endpoint, action, req, &first); err != nil {
		return nil, err
	}
	return soap.FetchAll(context.Background(), c, endpoint, &first)
}

// sameRows requires bit-identical row sequences: same length, order,
// values and dynamic types.
func sameRows(t *testing.T, label string, got, want [][]value.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: %d cells, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			g, w := got[i][j], want[i][j]
			if !value.Equal(g, w) || g.Type() != w.Type() {
				t.Fatalf("%s row %d cell %d: %v (%v), want %v (%v)", label, i, j, g, g.Type(), w, w.Type())
			}
		}
	}
}

// TestStreamedChainMatchesFolded runs the daisy chain page by page —
// seed, extend and drop-out steps all streaming — and requires the
// folded chain's rows exactly, at the node's default page size and at
// page sizes that force every step to re-page its output.
func TestStreamedChainMatchesFolded(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 400, defaultConfigs())
	plans := map[string]plan.Plan{
		"mandatory": buildPlan(archives, endpoints, []int{0, 1, 2}, nil, 3.5),
		"dropout":   buildPlan(archives, endpoints, []int{2, 0, 1}, map[string]bool{"FIRST": true}, 3.0),
	}
	for name, p := range plans {
		want := runChain(t, p)
		if len(want) < 10 {
			t.Fatalf("%s: degenerate chain, %d rows", name, len(want))
		}
		for _, chunkRows := range []int{0, 1, 7} {
			p.ChunkRows = chunkRows
			label := fmt.Sprintf("%s chunkRows=%d", name, chunkRows)
			got, pages, err := drainStream(p.Steps[0].Endpoint, ActionCrossMatch, &CrossMatchRequest{Plan: p})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameRows(t, label, got.Rows, want)
			if chunkRows > 0 && pages < len(want)/chunkRows {
				t.Errorf("%s: %d rows arrived in only %d pages", label, len(want), pages)
			}
		}
	}
}

// TestIsolatedStepsMatchChain drives the chain the way the portal's
// scatter tier does: each step in isolated mode, seeded steps first,
// with every later step fetching its incoming tuples from a stash on a
// coordinator. Folded and streamed isolated calls must both reproduce
// the daisy chain's rows exactly.
func TestIsolatedStepsMatchChain(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 400, defaultConfigs())
	p := buildPlan(archives, endpoints, []int{2, 0, 1}, map[string]bool{"FIRST": true}, 3.0)
	p.ChunkRows = 5
	want := runChain(t, p)

	coord := soap.NewServer()
	var stash soap.ChunkStore
	coord.Handle(soap.FetchAction, stash.FetchHandler())
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)

	for _, streamed := range []bool{false, true} {
		var cur *dataset.DataSet
		for i := len(p.Steps) - 1; i >= 0; i-- {
			req := &CrossMatchRequest{Plan: p, Isolated: true}
			if cur != nil {
				tok := stash.Stash(cur, p.ChunkRows, 1)[0]
				req.Incoming = &IncomingRef{Endpoint: ts.URL, Token: tok}
			}
			var err error
			if streamed {
				cur, _, err = drainStream(p.Steps[i].Endpoint, ActionCrossMatch, req)
			} else {
				cur, err = foldedCall(p.Steps[i].Endpoint, ActionCrossMatch, req)
			}
			if err != nil {
				t.Fatalf("streamed=%v step %s: %v", streamed, p.Steps[i].Archive, err)
			}
		}
		sameRows(t, fmt.Sprintf("isolated streamed=%v", streamed), cur.Rows, want)
	}
	if n := stash.Pending(); n != 0 {
		t.Errorf("%d stashed transfers left undrained", n)
	}

	// An isolated step whose stash token is unknown fails loudly.
	req := &CrossMatchRequest{Plan: p, Isolated: true, Incoming: &IncomingRef{Endpoint: ts.URL, Token: "nope"}}
	if _, _, err := drainStream(p.Steps[0].Endpoint, ActionCrossMatch, req); err == nil {
		t.Error("streamed isolated step with a dead token succeeded")
	}
	if _, err := foldedCall(p.Steps[0].Endpoint, ActionCrossMatch, req); err == nil {
		t.Error("folded isolated step with a dead token succeeded")
	}
}

// TestStreamedCrossMatchRejectsNegativeChunkRows: a plan whose chunkRows
// is negative must come back as a SOAP fault on both wires, never reach
// the pager (which would slice with a negative bound).
func TestStreamedCrossMatchRejectsNegativeChunkRows(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 100, defaultConfigs()[:2])
	p := buildPlan(archives, endpoints, []int{0, 1}, nil, 3.5)
	p.ChunkRows = -1
	_, _, err := drainStream(endpoints[0], ActionCrossMatch, &CrossMatchRequest{Plan: p})
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("streamed: err = %v, want a SOAP fault", err)
	}
	_, err = foldedCall(endpoints[0], ActionCrossMatch, &CrossMatchRequest{Plan: p})
	if !errors.As(err, &fault) {
		t.Fatalf("folded: err = %v, want a SOAP fault", err)
	}
}

// TestStreamedChainErrors covers failures on the streamed path: a step
// that cannot compile its predicate, and a predicate that fails on a
// row after pages have started to flow, which must surface as an error
// to the consumer rather than a silently short result.
func TestStreamedChainErrors(t *testing.T) {
	_, archives, _, endpoints := testFederation(t, 300, defaultConfigs()[:2])
	base := buildPlan(archives, endpoints, []int{0, 1}, nil, 3.5)

	badSeed := base
	badSeed.Steps = append([]plan.Step(nil), base.Steps...)
	badSeed.Steps[1].LocalWhere = "T.nosuch = 1"
	if _, _, err := drainStream(endpoints[0], ActionCrossMatch, &CrossMatchRequest{Plan: badSeed}); err == nil {
		t.Error("seed step with an unbindable predicate succeeded")
	}

	badExtend := base
	badExtend.Steps = append([]plan.Step(nil), base.Steps...)
	badExtend.Steps[0].LocalWhere = "O.nosuch = 1"
	if _, _, err := drainStream(endpoints[0], ActionCrossMatch, &CrossMatchRequest{Plan: badExtend}); err == nil {
		t.Error("extend step with an unbindable predicate succeeded")
	}

	failing := base
	failing.Steps = append([]plan.Step(nil), base.Steps...)
	failing.Steps[0].CrossWhere = []string{"O.object_id / (T.object_id - T.object_id) > 0"}
	if _, _, err := drainStream(endpoints[0], ActionCrossMatch, &CrossMatchRequest{Plan: failing}); err == nil {
		t.Error("streamed chain with a failing cross predicate succeeded")
	}
	if _, err := foldedCall(endpoints[0], ActionCrossMatch, &CrossMatchRequest{Plan: failing}); err == nil {
		t.Error("folded chain with a failing cross predicate succeeded")
	}
}

// TestQueryServiceStreamed: the Query service's streamed answer matches
// its folded one row for row, paged at the node's chunk size.
func TestQueryServiceStreamed(t *testing.T) {
	f := survey.GenerateField(testRegion(), 300, 0.4, 77)
	a := survey.Observe(f, survey.Config{Name: "SDSS", SigmaArcsec: 0.1, Completeness: 1, Seed: 5})
	db, err := a.BuildDB()
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Name: "SDSS", DB: db, PrimaryTable: survey.TableName,
		RACol: "ra", DecCol: "dec", SigmaArcsec: 0.1, ChunkRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Server())
	t.Cleanup(ts.Close)

	req := &QueryRequest{SQL: "SELECT o.object_id, o.flux FROM " + survey.TableName + " o WHERE o.type = 'GALAXY'"}
	want, err := foldedCall(ts.URL, ActionQuery, req)
	if err != nil {
		t.Fatal(err)
	}
	got, pages, err := drainStream(ts.URL, ActionQuery, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Columns) != 2 || got.Columns[0].Name != want.Columns[0].Name {
		t.Errorf("streamed columns %+v, folded %+v", got.Columns, want.Columns)
	}
	sameRows(t, "streamed query", got.Rows, want.Rows)
	if wantPages := (len(want.Rows) + 15) / 16; pages != wantPages {
		t.Errorf("%d rows in %d pages, want %d pages of at most 16", len(want.Rows), pages, wantPages)
	}
}
