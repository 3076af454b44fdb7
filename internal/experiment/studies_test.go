package experiment

import (
	"testing"
	"time"
)

// The extension studies' acceptance gates. Each test runs its study at the
// small sizes felipbench's -modes, -longitudinal and -megadomain flags once
// ran under -smoke, and checks the bounds those studies were accepted on.

// TestModeShootoutGate: the shootout covers all three modes across at least
// two ε values, attribute counts and domains; SPL pays the m-fold wire cost;
// and at the top ε FELIP is at least as accurate as SPL, within 5%.
func TestModeShootoutGate(t *testing.T) {
	start := time.Now()
	cells, err := RunModeShootout(ModeShootoutConfig{
		N:        8000,
		Epsilons: []float64{0.5, 2.0},
		Dims:     []int{3, 5},
		Domains:  []int{16, 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cells in %v", len(cells), time.Since(start))

	type point struct {
		eps           float64
		domain, attrs int
	}
	modes := map[string]bool{}
	epsilons, attrs, domains := map[float64]bool{}, map[int]bool{}, map[int]bool{}
	felip, spl := map[point]ModeCell{}, map[point]ModeCell{}
	top := 0.0
	for _, c := range cells {
		modes[c.Mode] = true
		epsilons[c.Epsilon], attrs[c.Attrs], domains[c.Domain] = true, true, true
		top = max(top, c.Epsilon)
		k := point{c.Epsilon, c.Domain, c.Attrs}
		switch c.Mode {
		case "FELIP":
			felip[k] = c
		case "SPL":
			spl[k] = c
		}
	}
	if len(modes) != 3 || !modes["FELIP"] || !modes["SPL"] || !modes["RS+FD"] {
		t.Fatalf("modes covered: %v", modes)
	}
	if len(epsilons) < 2 || len(attrs) < 2 || len(domains) < 2 {
		t.Fatalf("sweep too small: %d ε values, %d attribute counts, %d domains", len(epsilons), len(attrs), len(domains))
	}
	for k, s := range spl {
		f, ok := felip[k]
		if !ok {
			t.Fatalf("no FELIP cell at %+v", k)
		}
		if s.WireBytes <= f.WireBytes {
			t.Errorf("%+v: SPL sent %d wire bytes, FELIP %d; SPL should pay more", k, s.WireBytes, f.WireBytes)
		}
	}
	for k, f := range felip {
		if k.eps == top && f.MSE > spl[k].MSE*1.05 {
			t.Errorf("%+v: FELIP MSE %.4g beyond 1.05 × SPL's %.4g at the top ε", k, f.MSE, spl[k].MSE)
		}
	}
}

// TestLongitudinalGate: memoized reporting stays within 2× the fresh-ε
// baseline's MSE at equal per-round budget; its cumulative spend stays fixed
// at ε_perm + ε_1 in every round while the baseline's grows as round × ε_1;
// and by the last round memoization has spent less than the baseline.
func TestLongitudinalGate(t *testing.T) {
	start := time.Now()
	// Six rounds, not five: the largest default budget point (ε_perm=4,
	// ε_1=1) crosses the fresh baseline exactly at round 5, and the gate
	// asserts memoization strictly beats fresh spend by the last round.
	results, err := RunLongitudinal(LongitudinalConfig{N: 6000, Rounds: 6, Attrs: 3, Domain: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d budget points in %v", len(results), time.Since(start))
	if len(results) == 0 {
		t.Fatal("no budget points")
	}
	for _, p := range results {
		if p.MSERatio > 2 {
			t.Errorf("ε_perm=%g ε_1=%g: longitudinal MSE %.2f× the fresh baseline's, want ≤ 2", p.EpsPerm, p.Eps1, p.MSERatio)
		}
		for _, rd := range p.Rounds {
			if rd.EpsCumLongitudinal != p.EpsPerm+p.Eps1 {
				t.Errorf("ε_perm=%g ε_1=%g round %d: cumulative spend %g drifted from %g",
					p.EpsPerm, p.Eps1, rd.Round, rd.EpsCumLongitudinal, p.EpsPerm+p.Eps1)
			}
			if rd.EpsCumFresh != float64(rd.Round)*p.Eps1 {
				t.Errorf("ε_perm=%g ε_1=%g round %d: fresh spend %g, want %g",
					p.EpsPerm, p.Eps1, rd.Round, rd.EpsCumFresh, float64(rd.Round)*p.Eps1)
			}
		}
		if p.EpsCumFinal >= p.EpsFreshFinal {
			t.Errorf("ε_perm=%g ε_1=%g: final spend %g did not beat the fresh baseline's %g",
				p.EpsPerm, p.Eps1, p.EpsCumFinal, p.EpsFreshFinal)
		}
	}
}

// TestMegaDomainGate: the sweep covers all four oracles over at least two ε
// values and three domains reaching 2^17; HR costs at most 16 bytes per user
// at the top domain while keeping its MSE within 2× OLH's; OUE pays its O(L)
// bitset; and the AFO picks HR exactly on domains of 2^14 and up.
func TestMegaDomainGate(t *testing.T) {
	start := time.Now()
	cells, err := RunMegaDomain(MegaDomainConfig{N: 3000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cells in %v", len(cells), time.Since(start))
	if len(cells) == 0 {
		t.Fatal("no cells")
	}

	type point struct {
		domain int
		eps    float64
	}
	protos := map[string]bool{}
	epsilons, domains := map[float64]bool{}, map[int]bool{}
	hr, olh := map[point]MegaDomainCell{}, map[point]MegaDomainCell{}
	top := 0
	for _, c := range cells {
		protos[c.Proto] = true
		epsilons[c.Epsilon], domains[c.Domain] = true, true
		top = max(top, c.Domain)
		k := point{c.Domain, c.Epsilon}
		switch c.Proto {
		case "HR":
			hr[k] = c
		case "OLH":
			olh[k] = c
		case "OUE":
			if c.BytesPerUser < float64(c.Domain)/8 {
				t.Errorf("%+v: OUE costs %.1f bytes per user, want at least L/8 = %g", k, c.BytesPerUser, float64(c.Domain)/8)
			}
		}
	}
	if len(protos) != 4 || !protos["GRR"] || !protos["OLH"] || !protos["OUE"] || !protos["HR"] {
		t.Fatalf("oracles covered: %v", protos)
	}
	if len(epsilons) < 2 || len(domains) < 3 {
		t.Fatalf("sweep too small: %d ε values, %d domains", len(epsilons), len(domains))
	}
	if top < 1<<17 {
		t.Fatalf("largest domain %d < 2^17", top)
	}
	for k, c := range hr {
		if k.domain == top && c.BytesPerUser > 16 {
			t.Errorf("%+v: HR costs %.2f bytes per user, want ≤ 16", k, c.BytesPerUser)
		}
		o, ok := olh[k]
		if !ok {
			t.Fatalf("no OLH cell at %+v", k)
		}
		if c.MSE > o.MSE*2 {
			t.Errorf("%+v: HR MSE %.4g beyond 2 × OLH's %.4g", k, c.MSE, o.MSE)
		}
		want := "OLH"
		if k.domain >= 1<<14 {
			want = "HR"
		}
		if c.AFOChoice != want {
			t.Errorf("%+v: AFO picks %s, want %s", k, c.AFOChoice, want)
		}
	}
}
