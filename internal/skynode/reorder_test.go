package skynode

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"skyquery/internal/nettrace"
	"skyquery/internal/plan"
	"skyquery/internal/survey"
)

// eventNode builds a one-archive node that records its trace events.
func eventNode(t *testing.T) (*Node, func() []Event) {
	t.Helper()
	f := survey.GenerateField(testRegion(), 50, 0.4, 9)
	a := survey.Observe(f, survey.Config{Name: "HEAD", SigmaArcsec: 0.1, Completeness: 1, Seed: 3})
	db, err := a.BuildDB()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []Event
	n, err := New(Config{Name: "HEAD", DB: db, PrimaryTable: survey.TableName,
		RACol: "ra", DecCol: "dec", SigmaArcsec: 0.1,
		OnEvent: func(e Event) { mu.Lock(); events = append(events, e); mu.Unlock() }})
	if err != nil {
		t.Fatal(err)
	}
	return n, func() []Event {
		mu.Lock()
		defer mu.Unlock()
		return append([]Event(nil), events...)
	}
}

// reorderPlan is a four-step plan headed by the test node: a
// statistics-priced suffix A (dearer) -> B -> C, whose planned costs are
// consistent with the call order (most expensive called first, so the
// cheapest executes first). Cross predicates sit where the alias sets
// complete in that order.
func reorderPlan() *plan.Plan {
	step := func(archive, alias, host, table string, est float64) plan.Step {
		s := plan.Step{Archive: archive, Alias: alias, Endpoint: "http://" + host + "/soap", Table: table,
			SigmaArcsec: 0.2, Columns: []string{"object_id"}, EstRows: est, StatsBased: true}
		s.Cost = plan.CostOf(&s, 0)
		return s
	}
	p := &plan.Plan{
		QueryID:         "reorder-1",
		Threshold:       3.5,
		Area:            plan.Area{RA: 185, Dec: -0.5, RadiusArcsec: 900},
		AdaptiveReorder: true,
		Steps: []plan.Step{
			{Archive: "HEAD", Alias: "h", Endpoint: "http://head/soap", Table: survey.TableName, SigmaArcsec: 0.1},
			step("A", "a", "host-a", "TA", 400),
			step("B", "b", "host-b", "TB", 200),
			step("C", "c", "host-c", "TC", 100),
		},
	}
	// Execution order is C, B, A: the b/c predicate completes at B, the
	// a/c one at A.
	p.Steps[2].CrossWhere = []string{"b.flux > c.flux"}
	p.Steps[1].CrossWhere = []string{"a.flux > c.flux"}
	return p
}

func TestMaybeReorderSuffixFollowsCalibration(t *testing.T) {
	n, events := eventNode(t)
	p := reorderPlan()

	// Estimates still agree with the plan: nothing moves.
	n.maybeReorderSuffix(p, 0)
	if got := stepOrderString(p.Steps); got != "HEAD->A->B->C" {
		t.Fatalf("undiverged plan re-ordered to %s", got)
	}

	// The node learns that table TC's estimates run 8x low: C's live
	// cost now exceeds A's, so C must be called first (execute last),
	// and the cross predicates must follow the new execution order.
	for i := 0; i < 8; i++ {
		n.calib.observe("TC", 10, 1000)
	}
	if r := n.calib.ratio("TC"); r != calibClamp {
		t.Fatalf("TC calibration = %v, want the clamp %v", r, calibClamp)
	}
	n.maybeReorderSuffix(p, 0)
	if got := stepOrderString(p.Steps); got != "HEAD->C->A->B" {
		t.Fatalf("re-ordered suffix = %s, want HEAD->C->A->B", got)
	}
	// Execution: B, A, C. "b.flux > c.flux" completes at C; so does
	// "a.flux > c.flux".
	if len(p.Steps[3].CrossWhere) != 0 || len(p.Steps[2].CrossWhere) != 0 {
		t.Errorf("predicates left on steps missing an alias: A %v, B %v", p.Steps[2].CrossWhere, p.Steps[3].CrossWhere)
	}
	if want := []string{"a.flux > c.flux", "b.flux > c.flux"}; !reflect.DeepEqual(p.Steps[1].CrossWhere, want) {
		t.Errorf("C predicates = %v, want %v", p.Steps[1].CrossWhere, want)
	}
	var reorders []string
	for _, e := range events() {
		if e.Kind == "xmatch.reorder" {
			reorders = append(reorders, e.Detail)
		}
	}
	if len(reorders) != 1 || reorders[0] != "A->B->C => C->A->B" {
		t.Errorf("reorder events = %q", reorders)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("re-ordered plan invalid: %v", err)
	}
}

func TestMaybeReorderSuffixUsesObservedThroughput(t *testing.T) {
	nettrace.ResetThroughput()
	t.Cleanup(nettrace.ResetThroughput)
	n, _ := eventNode(t)
	p := reorderPlan()
	// host-a is measured fast, host-b slow, host-c unmeasured (charged
	// the slowest measured path). Dividing by throughput shrinks every
	// cost far below the byte-volume plan, so the suffix is re-priced and
	// re-sorted on live costs: A (fast) becomes the cheapest.
	nettrace.RecordTransfer("host-a", 64<<20, time.Millisecond)
	nettrace.RecordTransfer("host-b", 1<<20, time.Second)
	n.maybeReorderSuffix(p, 0)
	if got := stepOrderString(p.Steps); got != "HEAD->B->C->A" {
		t.Fatalf("re-ordered suffix = %s, want HEAD->B->C->A", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("re-ordered plan invalid: %v", err)
	}
}

func TestMaybeReorderSuffixKeepsPlan(t *testing.T) {
	n, events := eventNode(t)
	cases := map[string]func(p *plan.Plan) int{
		"not permitted": func(p *plan.Plan) int {
			p.AdaptiveReorder = false
			n.calib.observe("TC", 10, 1000)
			return 0
		},
		"suffix of one": func(p *plan.Plan) int { return 2 },
		"diverged, same order": func(p *plan.Plan) int {
			// A is already called first; making it dearer changes nothing.
			for i := 0; i < 4; i++ {
				n.calib.observe("TA", 10, 1000)
			}
			return 0
		},
		"unparsable predicate": func(p *plan.Plan) int {
			n.calib.observe("TC", 10, 1000)
			p.Steps[2].CrossWhere = []string{"b.flux >"}
			return 0
		},
		"orphaned predicate": func(p *plan.Plan) int {
			n.calib.observe("TC", 10, 1000)
			p.Steps[2].CrossWhere = []string{"z.flux > 1"}
			return 0
		},
	}
	for name, setup := range cases {
		n.calib = calibration{}
		p := reorderPlan()
		idx := setup(p)
		before := append([]plan.Step(nil), p.Steps...)
		n.maybeReorderSuffix(p, idx)
		if got, want := stepOrderString(p.Steps), stepOrderString(before); got != want {
			t.Errorf("%s: plan re-ordered %s -> %s", name, want, got)
		}
		if !reflect.DeepEqual(p.Steps[2].CrossWhere, before[2].CrossWhere) {
			t.Errorf("%s: predicates moved: %v -> %v", name, before[2].CrossWhere, p.Steps[2].CrossWhere)
		}
	}
	for _, e := range events() {
		if e.Kind == "xmatch.reorder" {
			t.Errorf("unexpected reorder event %q", e.Detail)
		}
	}
}

func TestReassignSuffixPredicates(t *testing.T) {
	suffix := []plan.Step{
		{Archive: "P", Alias: "p", DropOut: true, CrossWhere: []string{"p.flux > t.flux"}},
		{Archive: "O", Alias: "o", CrossWhere: []string{"o.flux > t.flux"}},
		{Archive: "T", Alias: "t", CrossWhere: []string{"t.flux > 1", "o.type = 'GALAXY' AND t.flux > o.flux"}},
	}
	// A drop-out never receives a predicate, so one naming its alias is
	// orphaned and the whole re-assignment is refused.
	if reassignSuffixPredicates(append([]plan.Step(nil), suffix...)) {
		t.Error("predicate on a drop-out alias was placed")
	}
	suffix[0].CrossWhere = nil
	if !reassignSuffixPredicates(suffix) {
		t.Fatal("consistent suffix refused")
	}
	if want := []string{"t.flux > 1"}; !reflect.DeepEqual(suffix[2].CrossWhere, want) {
		t.Errorf("seed predicates = %v, want %v", suffix[2].CrossWhere, want)
	}
	if want := []string{"o.flux > t.flux", "o.type = 'GALAXY' AND t.flux > o.flux"}; !reflect.DeepEqual(suffix[1].CrossWhere, want) {
		t.Errorf("extend predicates = %v, want %v", suffix[1].CrossWhere, want)
	}
	if suffix[0].CrossWhere != nil {
		t.Errorf("drop-out predicates = %v", suffix[0].CrossWhere)
	}
	if reassignSuffixPredicates([]plan.Step{{Alias: "o", CrossWhere: []string{"o.flux >"}}}) {
		t.Error("unparsable predicate placed")
	}
}

func TestReorderHelpers(t *testing.T) {
	a := []plan.Step{{Archive: "X"}, {Archive: "Y"}}
	b := []plan.Step{{Archive: "Y"}, {Archive: "X"}}
	if !sameStepOrder(a, a) || sameStepOrder(a, b) {
		t.Error("sameStepOrder")
	}
	if got := stepOrderString(b); got != "Y->X" {
		t.Errorf("stepOrderString = %q", got)
	}
	for in, want := range map[string]string{
		"http://127.0.0.1:8081/soap": "127.0.0.1:8081",
		"http://node":                "node",
		"::not a url":                "",
	} {
		if got := endpointHost(in); got != want {
			t.Errorf("endpointHost(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCalibration(t *testing.T) {
	var c calibration
	if r := c.ratio("T"); r != 1 {
		t.Fatalf("unobserved ratio = %v", r)
	}
	c.observe("T", 100, 400) // residual 4: half a step in log space
	if r := c.ratio("T"); math.Abs(r-2) > 1e-12 {
		t.Errorf("ratio after 4x residual = %v, want 2", r)
	}
	c.observe("T", 0, 50)  // no estimate: ignored
	c.observe("T", 10, -1) // no actual: ignored
	if r := c.ratio("T"); math.Abs(r-2) > 1e-12 {
		t.Errorf("ignored observations moved the ratio to %v", r)
	}
	for i := 0; i < 20; i++ {
		c.observe("U", 1e6, 0) // nothing survived: calibrates as 1 row
	}
	if r := c.ratio("U"); r != 1/calibClamp {
		t.Errorf("ratio floor = %v, want %v", r, 1/calibClamp)
	}
	if r := c.ratio("T"); math.Abs(r-2) > 1e-12 {
		t.Errorf("tables share a ratio: T = %v", r)
	}
}

func TestObserveSeedEstimate(t *testing.T) {
	n, events := eventNode(t)
	n.observeSeedEstimate(plan.Step{Table: "T", EstRows: 10}, 40) // count-based: no calibration
	if r := n.calib.ratio("T"); r != 1 {
		t.Errorf("count-based estimate calibrated to %v", r)
	}
	n.observeSeedEstimate(plan.Step{Table: "T", EstRows: 10, StatsBased: true}, 40)
	if r := n.calib.ratio("T"); math.Abs(r-2) > 1e-12 {
		t.Errorf("stats-based estimate calibrated to %v, want 2", r)
	}
	n.observeSeedEstimate(plan.Step{Table: "T"}, 40) // no estimate: silent
	var details []string
	for _, e := range events() {
		if e.Kind == "xmatch.estimate" {
			details = append(details, e.Detail)
		}
	}
	if len(details) != 2 || !strings.Contains(details[0], "est=10 actual=40") {
		t.Errorf("estimate events = %q", details)
	}
}
