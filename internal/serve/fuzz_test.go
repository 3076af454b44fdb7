package serve

import (
	"math"
	"reflect"
	"testing"

	"felip/internal/core"
	"felip/internal/query"
)

// FuzzQueryAnswer feeds arbitrary WHERE expressions through the query parser
// into the engine, over one fixed OHG round on the mixed test schema (two
// 32-value numerical and two 4-value categorical attributes). The parser must
// never panic; a query it accepts must come back unchanged through Compact
// and Parse; and the engine must answer it with a finite value within
// TestEngineMatchesAggregator's tolerances of the mask-scan reference, or
// both must refuse it.
func FuzzQueryAnswer(f *testing.F) {
	for _, where := range []string{
		"num0=8..23",
		"num0=2..9 and cat0=0,1",
		"num0=2..9 and cat0=0,1 and num1=1..6",
		"num0=16..48;cat0=0,1",
		"num0=1..20; num1=3..9; cat0=0,2; cat1=1,3",
		"num0<=15 AND num1>=16",
		"num1=7; cat1=3",
		"num0=1,5,6",
		"cat0=1..2",
		"age=30..60; education=1,2; salary<=80",
		"num0=3;num0=4",
		"",
	} {
		f.Add(where)
	}
	schema := testSchema()
	agg := collectFor(f, core.OHG, 20000, 101)
	eng := engineFor(f, agg)
	ref := newMaskScan(agg)
	ipfTol := 10 / float64(agg.N())

	f.Fuzz(func(t *testing.T, where string) {
		q, err := query.Parse(where, schema)
		if err != nil {
			return
		}
		compact := query.Compact(q, schema)
		back, err := query.Parse(compact, schema)
		if err != nil {
			t.Fatalf("%q: Compact form %q refused: %v", where, compact, err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("%q: Compact form %q parses to %+v, want %+v", where, compact, back, q)
		}
		got, errG := eng.Answer(q)
		want, errW := ref.Answer(q)
		if (errG == nil) != (errW == nil) {
			t.Fatalf("%q: engine err %v, reference err %v", where, errG, errW)
		}
		if errG != nil {
			return
		}
		tol := 1e-9
		if q.Lambda() >= 3 {
			tol = ipfTol
		}
		if math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-want) > tol {
			t.Fatalf("%q (λ=%d): engine %v vs reference %v", where, q.Lambda(), got, want)
		}
	})
}
