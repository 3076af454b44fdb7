package fo

import "testing"

func TestParseProtocolInvertsString(t *testing.T) {
	for _, p := range []Protocol{GRR, OLH, OUE, HR} {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, name := range []string{"", "grr", "Protocol(9)", "RS+FD"} {
		if p, err := ParseProtocol(name); err == nil {
			t.Errorf("ParseProtocol(%q) = %v, want an error", name, p)
		}
	}
}

// The pair form is the typed form re-spelled: on one seed a Perturber draws
// the typed client's reports, and AddReport folds them to the typed Add's
// estimates, bit for bit.
func TestPairFormMatchesTypedForm(t *testing.T) {
	const eps, L, n = 1.1, 40, 3000
	for _, p := range []Protocol{GRR, OLH, HR} {
		pert, err := NewPerturber(p, eps, L)
		if err != nil {
			t.Fatal(err)
		}
		pairAgg, err := NewAggregator(p, eps, L)
		if err != nil {
			t.Fatal(err)
		}
		rp, rt := NewRand(91), NewRand(91)
		var typedAdd func(v int) (value int, seed uint64)
		var typedEst func() []float64
		switch p {
		case GRR:
			c, _ := NewGRRClient(eps, L)
			agg := NewGRRAggregator(eps, L)
			typedAdd = func(v int) (int, uint64) {
				x, _ := c.Perturb(v, rt)
				agg.Add(x)
				return x, 0
			}
			typedEst = agg.Estimates
		case OLH:
			c, _ := NewOLHClient(eps, L)
			agg := NewOLHAggregator(eps, L)
			typedAdd = func(v int) (int, uint64) {
				rep, _ := c.Perturb(v, rt)
				agg.Add(rep)
				return int(rep.Value), rep.Seed
			}
			typedEst = agg.Estimates
		case HR:
			c, _ := NewHRClient(eps, L)
			agg := NewHRAggregator(eps, L)
			typedAdd = func(v int) (int, uint64) {
				rep, _ := c.Perturb(v, rt)
				agg.Add(rep)
				var bit uint64
				if rep.Sign < 0 {
					bit = 1
				}
				return rep.Row, bit
			}
			typedEst = agg.Estimates
		}
		for i := 0; i < n; i++ {
			v := (i * 7) % L
			value, seed, err := pert.PerturbReport(v, rp)
			if err != nil {
				t.Fatal(err)
			}
			if err := pairAgg.CheckReport(value, seed); err != nil {
				t.Fatalf("%v: a perturbed report fails CheckReport: %v", p, err)
			}
			pairAgg.AddReport(value, seed)
			if wv, ws := typedAdd(v); wv != value || ws != seed {
				t.Fatalf("%v report %d: pair (%d, %d), typed (%d, %d)", p, i, value, seed, wv, ws)
			}
		}
		got, want := pairAgg.Estimates(), typedEst()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v estimate[%d]: pair %v, typed %v", p, v, got[v], want[v])
			}
		}
	}
}

// CheckReport is each protocol's one valid-report rule, and AddReport counts
// what it refuses as rejected. An OLH value past the kernel's byte is
// refused, never truncated into range (256+1 would narrow to 1 < g).
func TestAddReportRejectsWhatCheckReportRefuses(t *testing.T) {
	const eps, L = 1.0, 40
	g, k := OptimalG(eps), HRPaddedSize(L)
	for _, tc := range []struct {
		proto Protocol
		good  [][2]uint64
		bad   [][2]int
	}{
		{GRR, [][2]uint64{{0, 0}, {L - 1, 0}}, [][2]int{{-1, 0}, {L, 0}}},
		{OLH, [][2]uint64{{0, 7}, {uint64(g) - 1, 9}}, [][2]int{{-1, 0}, {g, 0}, {256 + 1, 0}}},
		{HR, [][2]uint64{{0, 0}, {uint64(k) - 1, 1}}, [][2]int{{-1, 0}, {k, 0}, {0, 2}}},
	} {
		agg, err := NewAggregator(tc.proto, eps, L)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tc.good {
			if err := agg.CheckReport(int(r[0]), r[1]); err != nil {
				t.Errorf("%v: CheckReport(%d, %d) = %v", tc.proto, r[0], r[1], err)
			}
			agg.AddReport(int(r[0]), r[1])
		}
		for _, r := range tc.bad {
			if agg.CheckReport(r[0], uint64(r[1])) == nil {
				t.Errorf("%v: CheckReport(%d, %d) accepted", tc.proto, r[0], r[1])
			}
			agg.AddReport(r[0], uint64(r[1]))
		}
		if agg.N() != len(tc.good) || agg.Rejected() != len(tc.bad) {
			t.Errorf("%v: N %d, Rejected %d; want %d and %d", tc.proto, agg.N(), agg.Rejected(), len(tc.good), len(tc.bad))
		}
	}
}

// OUE's L-bit report has no (value, seed) form, so neither end is built for
// it; an unknown protocol is refused the same way.
func TestPairConstructorsRefuseUnpaired(t *testing.T) {
	for _, p := range []Protocol{OUE, Protocol(9)} {
		if _, err := NewPerturber(p, 1, 8); err == nil {
			t.Errorf("NewPerturber(%v) accepted", p)
		}
		if _, err := NewAggregator(p, 1, 8); err == nil {
			t.Errorf("NewAggregator(%v) accepted", p)
		}
		if p.HasPairReport() {
			t.Errorf("%v claims a pair report", p)
		}
	}
	if _, err := NewAggregator(GRR, 0, 8); err == nil {
		t.Error("NewAggregator accepted ε = 0")
	}
}
