package experiment

import (
	"fmt"
	"time"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/gridopt"
	"felip/internal/wire"
)

// The mega-domain shootout drives every frequency oracle over a single
// categorical attribute whose domain is far past the paper's grid sizes
// (2^10 .. 2^17 values), on two axes at once: estimation MSE against the
// sample's exact frequencies, and bytes on the wire per user. The regime is
// the one HR exists for — OUE's report is L bits, OLH's server fold is
// O(n·L) hash evaluations, while HR's report is one (row, sign) pair and its
// fold is two integer increments — so the sweep records fold+estimate wall
// time alongside the two axes, and what the AFO planner would pick at each
// (L, ε) point.

// MegaDomainCell is one (protocol, domain, ε) measurement.
type MegaDomainCell struct {
	// Proto names the frequency oracle (GRR, OLH, OUE, HR).
	Proto string `json:"proto"`
	// Epsilon is the per-user privacy budget.
	Epsilon float64 `json:"epsilon"`
	// Domain is the categorical domain size L.
	Domain int `json:"domain"`
	// PaddedDomain is HR's power-of-two Hadamard order K (0 for others).
	PaddedDomain int `json:"padded_domain,omitempty"`
	// N is the population size.
	N int `json:"n"`
	// WireBytes is the total on-the-wire cost of shipping all n reports in
	// batched binary frames (frame headers included). OUE reports do not fit
	// the frame record format, so their figure is the analytic cost of the
	// packed bitset record described in the methodology.
	WireBytes int64 `json:"wire_bytes"`
	// BytesPerUser is WireBytes / N.
	BytesPerUser float64 `json:"bytes_per_user"`
	// RecordBytes is the per-report record size excluding frame headers.
	RecordBytes float64 `json:"record_bytes_per_report"`
	// MSE is the mean squared error of the estimated frequencies over the
	// full domain against the sample's exact frequencies. For analytic-only
	// cells it is the closed-form variance (the expected MSE).
	MSE float64 `json:"mse"`
	// AnalyticVariance is the closed-form per-value estimator variance at
	// this (proto, ε, n) — the quantity MSE converges to on a mostly-empty
	// mega-domain.
	AnalyticVariance float64 `json:"analytic_variance"`
	// EstimateMillis is the wall time of the aggregator's estimate step
	// (OLH's deferred fold included — the O(n·L) term the threshold rule
	// charges it for).
	EstimateMillis float64 `json:"estimate_ms"`
	// AFOChoice is the protocol the variance-aware planner picks at this
	// (L, ε, n) — identical across the cell's protocol rows.
	AFOChoice string `json:"afo_choice"`
	// Simulated is false for analytic-only cells (OUE beyond the simulation
	// cap, where the O(n·L) perturbation loop is the bottleneck being
	// demonstrated).
	Simulated bool `json:"simulated"`
}

// MegaDomainConfig parameterizes the sweep.
type MegaDomainConfig struct {
	// N is the population per cell (default 20000; must be ≤ 65536 so the
	// fixed 4-hex-digit report ids stay unique).
	N int
	// Domains is the domain-size sweep (default 2^10, 2^14, 2^17).
	Domains []int
	// Epsilons is the ε sweep (default 0.5 and 1.0 — inside the regime where
	// HR's variance stays within the AFO's bounded ratio of OLH's).
	Epsilons []float64
	// Zipf is the sample's Zipf exponent (default 1.1).
	Zipf float64
	// BatchReports is the frame size wire costs are metered at (default 512).
	BatchReports int
	// OUESimLimit is the largest domain OUE is simulated at (default 2^14);
	// beyond it the cell is analytic-only.
	OUESimLimit int
	// Seed makes the sweep deterministic (default 1).
	Seed uint64
	// Progress, when non-nil, receives one line per finished cell.
	Progress func(string)
}

func (c MegaDomainConfig) withDefaults() (MegaDomainConfig, error) {
	if c.N <= 0 {
		c.N = 20000
	}
	if c.N > 65536 {
		return c, fmt.Errorf("experiment: mega-domain N %d exceeds the 4-hex-digit id space", c.N)
	}
	if len(c.Domains) == 0 {
		c.Domains = []int{1 << 10, 1 << 14, 1 << 17}
	}
	if len(c.Epsilons) == 0 {
		c.Epsilons = []float64{0.5, 1.0}
	}
	if c.Zipf <= 0 {
		c.Zipf = 1.1
	}
	if c.BatchReports <= 0 {
		c.BatchReports = 512
	}
	if c.OUESimLimit <= 0 {
		c.OUESimLimit = 1 << 14
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

var megaDomainProtos = []fo.Protocol{fo.GRR, fo.OLH, fo.OUE, fo.HR}

// RunMegaDomain runs the sweep and returns one cell per (domain, ε, proto).
func RunMegaDomain(cfg MegaDomainConfig) ([]MegaDomainCell, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var cells []MegaDomainCell
	for _, L := range cfg.Domains {
		md, err := dataset.GenerateMegaDomain(L, cfg.N, cfg.Zipf, cfg.Seed)
		if err != nil {
			return nil, err
		}
		truth := md.Frequencies()
		for _, eps := range cfg.Epsilons {
			afo := gridopt.Plan1DCategorical(
				gridopt.Params{Epsilon: eps, N: cfg.N, M: 1}, L, 0.5).Proto.String()
			for _, proto := range megaDomainProtos {
				cell, err := runMegaDomainCell(cfg, md, truth, L, eps, proto)
				if err != nil {
					return nil, fmt.Errorf("experiment: megadomain %v L=%d eps=%g: %w", proto, L, eps, err)
				}
				cell.AFOChoice = afo
				cells = append(cells, cell)
				if cfg.Progress != nil {
					cfg.Progress(fmt.Sprintf(
						"megadomain: L=%d eps=%g %-3s mse=%.3e bytes/user=%.2f estimate=%.1fms sim=%v",
						L, eps, cell.Proto, cell.MSE, cell.BytesPerUser, cell.EstimateMillis, cell.Simulated))
				}
			}
		}
	}
	return cells, nil
}

// analyticVariance returns the closed-form per-value estimator variance.
func analyticVariance(proto fo.Protocol, eps float64, L, n int) float64 {
	return proto.Variance(eps, L, n)
}

// megaID returns the fixed-width report id for user i: 4 hex digits, the
// shortest id that keeps 65536 users unique — report ids are part of the
// wire cost, so the bench keeps them as small as a production batcher could.
func megaID(i int) string { return fmt.Sprintf("%04x", i) }

func runMegaDomainCell(cfg MegaDomainConfig, md *dataset.MegaDomain, truth []float64, L int, eps float64, proto fo.Protocol) (MegaDomainCell, error) {
	cell := MegaDomainCell{
		Proto:            proto.String(),
		Epsilon:          eps,
		Domain:           L,
		N:                cfg.N,
		AnalyticVariance: analyticVariance(proto, eps, L, cfg.N),
		Simulated:        true,
	}
	if proto == fo.HR {
		cell.PaddedDomain = fo.HRPaddedSize(L)
	}

	// OUE's report is a packed L-bit vector; it has no frame record form, so
	// its wire figures are analytic everywhere and past the simulation cap
	// the whole cell is (the per-user O(L) perturbation loop is exactly the
	// bloat the cell documents).
	if proto == fo.OUE {
		rec := float64(1+len(megaID(0))+5) + float64((L+7)/8)
		cell.RecordBytes = rec
		cell.WireBytes = int64(rec * float64(cfg.N))
		cell.BytesPerUser = rec
		if L > cfg.OUESimLimit {
			cell.MSE = cell.AnalyticVariance
			cell.Simulated = false
			return cell, nil
		}
		r := fo.NewRand(cfg.Seed + uint64(L) + uint64(eps*1000))
		client, err := fo.NewOUEClient(eps, L)
		if err != nil {
			return cell, err
		}
		agg := fo.NewOUEAggregator(eps, L)
		for _, v := range md.Values {
			rep, err := client.Perturb(v, r)
			if err != nil {
				return cell, err
			}
			agg.Add(rep)
		}
		t0 := time.Now()
		est := agg.Estimates()
		cell.EstimateMillis = float64(time.Since(t0).Microseconds()) / 1000
		cell.MSE = mseOver(est, truth)
		return cell, nil
	}

	// The frame-capable oracles ship real batched binary frames and meter
	// the encoded bytes, headers included.
	r := fo.NewRand(cfg.Seed + uint64(L) + uint64(eps*1000))
	client, err := fo.NewPerturber(proto, eps, L)
	if err != nil {
		return cell, err
	}
	agg, err := fo.NewAggregator(proto, eps, L)
	if err != nil {
		return cell, err
	}
	batch := make([]wire.BatchReport, 0, cfg.BatchReports)
	var frameBuf []byte
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		frameBuf, err = wire.AppendFrame(frameBuf[:0], batch)
		if err != nil {
			return err
		}
		cell.WireBytes += int64(len(frameBuf))
		batch = batch[:0]
		return nil
	}
	for i, v := range md.Values {
		value, seed, err := client.PerturbReport(v, r)
		if err != nil {
			return cell, err
		}
		agg.AddReport(value, seed)
		rep := core.Report{Group: 0, Proto: proto, Value: value, Seed: seed}
		batch = append(batch, wire.BatchReport{ID: megaID(i), Report: rep})
		if len(batch) == cfg.BatchReports {
			if err := flush(); err != nil {
				return cell, err
			}
		}
	}
	if err := flush(); err != nil {
		return cell, err
	}
	cell.BytesPerUser = float64(cell.WireBytes) / float64(cfg.N)
	// One record's bytes: a one-report frame less the empty frame's header.
	one := []wire.BatchReport{{ID: megaID(0), Report: core.Report{Proto: proto}}}
	cell.RecordBytes = float64(wire.FrameSizeMode(fo.ModeFELIP, one) - wire.FrameSizeMode(fo.ModeFELIP, nil))

	t0 := time.Now()
	est := agg.Estimates()
	cell.EstimateMillis = float64(time.Since(t0).Microseconds()) / 1000
	cell.MSE = mseOver(est, truth)
	return cell, nil
}

// mseOver is the mean squared error over the full domain.
func mseOver(est, truth []float64) float64 {
	var sum float64
	for v := range truth {
		d := est[v] - truth[v]
		sum += d * d
	}
	return sum / float64(len(truth))
}
