package skynode

import (
	"context"
	"math"
	"testing"

	"skyquery/internal/plan"
	"skyquery/internal/soap"
	"skyquery/internal/sphere"
	"skyquery/internal/survey"
)

// TestStatsSummaryService checks the planner's statistics probe end to
// end over SOAP: the area candidate count, the local predicate's
// estimated selectivity, the learned calibration, and the faults for
// requests it cannot answer.
func TestStatsSummaryService(t *testing.T) {
	_, archives, nodes, endpoints := testFederation(t, 600, defaultConfigs()[:1])
	reg := testRegion()
	ra, dec := reg.Center.RaDec()
	area := plan.Area{RA: ra, Dec: dec, RadiusArcsec: sphere.ToArcsec(reg.Radius)}
	c := &soap.Client{}
	probe := func(req *StatsRequest) (*StatsResponse, error) {
		var resp StatsResponse
		err := c.Call(context.Background(), endpoints[0], ActionStats, req, &resp)
		return &resp, err
	}

	all, err := probe(&StatsRequest{Table: survey.TableName, Alias: "O", Area: area})
	if err != nil {
		t.Fatal(err)
	}
	if !all.HasStats || all.TableRows != int64(len(archives[0].Obs)) {
		t.Fatalf("response %+v, want statistics over %d rows", all, len(archives[0].Obs))
	}
	// Every observation lies in the field, so the area's candidates are
	// the whole table; with no predicate the estimate is that count.
	if all.AreaRows != all.TableRows || all.Selectivity != 1 || all.EstRows != float64(all.AreaRows) {
		t.Errorf("unfiltered estimate %+v", all)
	}

	galaxies := 0
	for _, o := range archives[0].Obs {
		if o.Galaxy {
			galaxies++
		}
	}
	gal, err := probe(&StatsRequest{Table: survey.TableName, Alias: "O", Area: area, LocalWhere: "O.type = 'GALAXY'"})
	if err != nil {
		t.Fatal(err)
	}
	if gal.Selectivity <= 0 || gal.Selectivity >= 1 {
		t.Fatalf("galaxy selectivity %v", gal.Selectivity)
	}
	if frac := float64(galaxies) / float64(gal.TableRows); math.Abs(gal.Selectivity-frac) > 0.15 {
		t.Errorf("galaxy selectivity %.3f, true fraction %.3f", gal.Selectivity, frac)
	}
	if gal.EstRows != float64(gal.AreaRows)*gal.Selectivity {
		t.Errorf("estimate %v != area %d x selectivity %v", gal.EstRows, gal.AreaRows, gal.Selectivity)
	}

	// A learned 2x correction for the table scales the estimate.
	nodes[0].calib.observe(survey.TableName, 100, 400)
	cal, err := probe(&StatsRequest{Table: survey.TableName, Alias: "O", Area: area})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cal.EstRows-2*all.EstRows) > 1e-9 {
		t.Errorf("calibrated estimate %v, want %v", cal.EstRows, 2*all.EstRows)
	}

	for name, req := range map[string]*StatsRequest{
		"unknown table":   {Table: "Nope", Area: area},
		"bad predicate":   {Table: survey.TableName, Alias: "O", Area: area, LocalWhere: "O.type ="},
		"bad area radius": {Table: survey.TableName, Alias: "O", Area: plan.Area{RA: ra, Dec: dec, RadiusArcsec: -1}},
	} {
		if _, err := probe(req); err == nil {
			t.Errorf("%s: probe succeeded", name)
		}
	}
}
