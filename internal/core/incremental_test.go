package core

import (
	"reflect"
	"sync"
	"testing"

	"felip/internal/dataset"
	"felip/internal/fo"
)

func TestNewClientValidation(t *testing.T) {
	specs, err := BuildPlan(mixedSchema(), 10000, Options{Strategy: OHG, Epsilon: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(nil, 1, 1); err == nil {
		t.Error("empty plan accepted")
	}
	if _, err := NewClient(specs, 0, 1); err == nil {
		t.Error("eps=0 accepted")
	}
	c, err := NewClient(specs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Groups() != len(specs) {
		t.Errorf("Groups = %d", c.Groups())
	}
	if _, err := c.Perturb(-1, func(int) int { return 0 }); err == nil {
		t.Error("negative group accepted")
	}
	if _, err := c.Perturb(len(specs), func(int) int { return 0 }); err == nil {
		t.Error("out-of-range group accepted")
	}
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector(mixedSchema(), 10000, Options{Strategy: OHG}); err == nil {
		t.Error("eps=0 accepted")
	}
	// Budget-split plans are routed through the SPL mode rather than refused.
	col, err := NewCollector(mixedSchema(), 10000, Options{Strategy: OHG, Epsilon: 1, DivideBudget: true})
	if err != nil {
		t.Errorf("budget division should route through SPL mode: %v", err)
	} else if col.Mode() != ModeSPL {
		t.Errorf("DivideBudget collector mode = %v, want SPL", col.Mode())
	}
	if _, err := NewCollector(mixedSchema(), 10000, Options{Strategy: OHG, Epsilon: 1, DivideBudget: true, Mode: ModeRSFD}); err == nil {
		t.Error("DivideBudget + RS+FD accepted")
	}
	if _, err := NewCollector(mixedSchema(), 0, Options{Strategy: OHG, Epsilon: 1}); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestCollectorRejectsBadReports(t *testing.T) {
	col, err := NewCollector(mixedSchema(), 10000, Options{Strategy: OHG, Epsilon: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	specs := col.Specs()
	if err := col.Add(Report{Group: -1}); err == nil {
		t.Error("negative group accepted")
	}
	if err := col.Add(Report{Group: len(specs)}); err == nil {
		t.Error("unknown group accepted")
	}
	// Wrong protocol for the group.
	wrong := fo.GRR
	if specs[0].Proto == fo.GRR {
		wrong = fo.OLH
	}
	if err := col.Add(Report{Group: 0, Proto: wrong}); err == nil {
		t.Error("wrong-protocol report accepted")
	}
	// Out-of-range values.
	for g, sp := range specs {
		switch sp.Proto {
		case fo.GRR:
			if err := col.Add(Report{Group: g, Proto: fo.GRR, Value: sp.L()}); err == nil {
				t.Error("out-of-range GRR value accepted")
			}
		case fo.OLH:
			if err := col.Add(Report{Group: g, Proto: fo.OLH, Value: 255}); err == nil {
				t.Error("out-of-range OLH value accepted")
			}
		}
	}
	if _, err := col.Finalize(); err == nil {
		t.Error("finalize with zero reports accepted")
	}
}

func TestAssignGroupRoundRobin(t *testing.T) {
	col, err := NewCollector(mixedSchema(), 10000, Options{Strategy: OUG, Epsilon: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := len(col.Specs())
	counts := make([]int, m)
	for i := 0; i < 5*m+3; i++ {
		counts[col.AssignGroup()]++
	}
	for g, c := range counts {
		if c < 5 || c > 6 {
			t.Errorf("group %d assigned %d users, want 5-6", g, c)
		}
	}
}

// Check validates without mutating; GroupCounts and ResumeAssignment expose
// the state a restarted aggregator needs to resume a round.
func TestCollectorResumeSurface(t *testing.T) {
	col, err := NewCollector(mixedSchema(), 10000, Options{Strategy: OHG, Epsilon: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	specs := col.Specs()
	m := len(specs)
	cl, err := NewClient(specs, col.Epsilon(), 23)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Perturb(0, func(int) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Check(rep); err != nil {
		t.Fatalf("Check rejected a valid report: %v", err)
	}
	if col.N() != 0 {
		t.Fatalf("Check mutated the collector: N = %d", col.N())
	}
	if err := col.Check(Report{Group: m}); err == nil {
		t.Error("Check accepted an unknown group")
	}

	const users = 17
	for i := 0; i < users; i++ {
		g := col.AssignGroup()
		rep, err := cl.Perturb(g, func(int) int { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	counts := col.GroupCounts()
	if len(counts) != m {
		t.Fatalf("GroupCounts len %d, want %d", len(counts), m)
	}
	var total int
	for g, c := range counts {
		if c < users/m || c > users/m+1 {
			t.Errorf("group %d holds %d reports, want %d-%d", g, c, users/m, users/m+1)
		}
		total += c
	}
	if total != users {
		t.Fatalf("GroupCounts sum %d, want %d", total, users)
	}

	// A fresh collector resumed at `users` continues the same round-robin
	// sequence the original would have produced.
	col2, err := NewCollector(mixedSchema(), 10000, Options{Strategy: OHG, Epsilon: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	col2.ResumeAssignment(users)
	if got, want := col2.AssignGroup(), col.AssignGroup(); got != want {
		t.Errorf("resumed assignment %d, original %d", got, want)
	}
}

// The collector must tolerate concurrent submissions.
func TestCollectorConcurrentAdds(t *testing.T) {
	s := mixedSchema()
	ds := dataset.NewUniform().Generate(s, 8000, 11)
	col, err := NewCollector(s, ds.N(), Options{Strategy: OUG, Epsilon: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := NewClient(col.Specs(), col.Epsilon(), uint64(100+w))
			if err != nil {
				errCh <- err
				return
			}
			for row := w; row < ds.N(); row += workers {
				rep, err := cl.Perturb(col.AssignGroup(), func(attr int) int { return ds.Value(row, attr) })
				if err != nil {
					errCh <- err
					return
				}
				if err := col.Add(rep); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if col.N() != ds.N() {
		t.Fatalf("collector N = %d, want %d", col.N(), ds.N())
	}
	if _, err := col.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorPartialsShardEquivalence: splitting a device population across
// shard collectors, exporting each shard's partial states, and importing them
// into a coordinator collector must finalize into an aggregator whose grids
// are bit-identical to a single collector that saw every report. Importing
// every shard in one call must hold the same counts as one call per shard.
func TestCollectorPartialsShardEquivalence(t *testing.T) {
	s := mixedSchema()
	ds := dataset.NewNormal().Generate(s, 9000, 71)
	opts := Options{Strategy: OHG, Epsilon: 1.5, Seed: 73}

	single, err := NewCollector(s, ds.N(), opts)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	shards := make([]*Collector, k)
	for i := range shards {
		if shards[i], err = NewCollector(s, ds.N(), opts); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := NewClient(single.Specs(), single.Epsilon(), 75)
	if err != nil {
		t.Fatal(err)
	}
	m := len(single.Specs())
	for row := 0; row < ds.N(); row++ {
		rep, err := cl.Perturb(row%m, func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := single.Add(rep); err != nil {
			t.Fatal(err)
		}
		if err := shards[row%k].Add(rep); err != nil {
			t.Fatal(err)
		}
	}

	coord, err := NewCollector(s, ds.N(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var all [][]fo.PartialState
	for i, sh := range shards {
		states, err := sh.ExportPartials()
		if err != nil {
			t.Fatalf("shard %d export: %v", i, err)
		}
		// Export seals the shard.
		if err := sh.Add(Report{Group: 0, Proto: sh.Specs()[0].Proto}); err == nil {
			t.Fatalf("shard %d accepted a report after export", i)
		}
		// Export is idempotent: a re-pull returns the identical states.
		again, err := sh.ExportPartials()
		if err != nil {
			t.Fatal(err)
		}
		for g := range states {
			if states[g].N != again[g].N {
				t.Fatalf("shard %d re-export differs at grid %d", i, g)
			}
		}
		if err := coord.ImportPartials(states); err != nil {
			t.Fatalf("shard %d import: %v", i, err)
		}
		all = append(all, states)
	}
	if coord.N() != ds.N() {
		t.Fatalf("coordinator N = %d, want %d", coord.N(), ds.N())
	}

	aggSingle, err := single.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	aggCoord, err := coord.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if aggCoord.N() != aggSingle.N() {
		t.Fatalf("merged N = %d, single N = %d", aggCoord.N(), aggSingle.N())
	}

	oneCall, err := NewCollector(s, ds.N(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := oneCall.ImportPartials(all...); err != nil {
		t.Fatal(err)
	}
	perShard, err := coord.ExportPartials()
	if err != nil {
		t.Fatal(err)
	}
	together, err := oneCall.ExportPartials()
	if err != nil {
		t.Fatal(err)
	}
	if oneCall.N() != coord.N() || !reflect.DeepEqual(together, perShard) {
		t.Fatalf("one ImportPartials call of %d sets holds N = %d and other states than one call per set (N = %d)",
			len(all), oneCall.N(), coord.N())
	}
	for _, sp := range aggSingle.Specs() {
		if sp.Is1D() {
			g1, _ := aggSingle.Grid1D(sp.AttrX)
			g2, ok := aggCoord.Grid1D(sp.AttrX)
			if !ok {
				t.Fatalf("merged aggregator missing 1-D grid %d", sp.AttrX)
			}
			for v := range g1.Freq {
				if g1.Freq[v] != g2.Freq[v] {
					t.Fatalf("grid %d freq[%d]: merged %v != single %v (not bit-identical)",
						sp.AttrX, v, g2.Freq[v], g1.Freq[v])
				}
			}
		} else {
			g1, _ := aggSingle.Grid2D(sp.AttrX, sp.AttrY)
			g2, ok := aggCoord.Grid2D(sp.AttrX, sp.AttrY)
			if !ok {
				t.Fatalf("merged aggregator missing 2-D grid %d,%d", sp.AttrX, sp.AttrY)
			}
			for v := range g1.Freq {
				if g1.Freq[v] != g2.Freq[v] {
					t.Fatalf("grid %d,%d freq[%d]: merged %v != single %v (not bit-identical)",
						sp.AttrX, sp.AttrY, v, g2.Freq[v], g1.Freq[v])
				}
			}
		}
	}
}

// TestImportPartialsValidation: mismatched shapes and sealed collectors must
// refuse imports whole. A good set followed by a bad one is refused as one
// import: no count of the good set lands.
func TestImportPartialsValidation(t *testing.T) {
	opts := Options{Strategy: OHG, Epsilon: 1, Seed: 81}
	col, err := NewCollector(mixedSchema(), 10000, opts)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := NewCollector(mixedSchema(), 10000, opts)
	if err != nil {
		t.Fatal(err)
	}
	states, err := shard.ExportPartials() // empty shard: zero counts, still importable
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewCollector(mixedSchema(), 10000, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(full.Specs(), full.Epsilon(), 83)
	if err != nil {
		t.Fatal(err)
	}
	for g := range full.Specs() {
		rep, err := cl.Perturb(g, func(int) int { return 1 })
		if err != nil {
			t.Fatal(err)
		}
		if err := full.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	withReports, err := full.ExportPartials()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]fo.PartialState(nil), states...)
	bad[0].Epsilon = 9
	for _, tc := range []struct {
		name   string
		shards [][]fo.PartialState
	}{
		{"short state list", [][]fo.PartialState{states[:1]}},
		{"mismatched epsilon", [][]fo.PartialState{bad}},
		{"shard with reports, then a short state list", [][]fo.PartialState{withReports, states[:1]}},
		{"shard with reports, then a mismatched epsilon", [][]fo.PartialState{withReports, bad}},
	} {
		if err := col.ImportPartials(tc.shards...); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if col.N() != 0 {
		t.Errorf("failed imports left N = %d", col.N())
	}
	for g, n := range col.GroupCounts() {
		if n != 0 {
			t.Errorf("failed imports left group %d with %d reports", g, n)
		}
	}
	if err := col.ImportPartials(states); err != nil {
		t.Fatalf("empty-shard import refused: %v", err)
	}
	if _, err := col.ExportPartials(); err != nil {
		t.Fatal(err)
	}
	if err := col.ImportPartials(states); err == nil {
		t.Error("import into a sealed collector accepted")
	}
}
