package gridopt

import (
	"math"

	"felip/internal/fo"
)

// DefaultAlpha1 and DefaultAlpha2 are the non-uniformity constants the paper
// uses in all experiments (§6.2).
const (
	DefaultAlpha1 = 0.7
	DefaultAlpha2 = 0.03
)

// Params captures the collection context shared by every grid of one FELIP
// run: the privacy budget, the population size, the number of user groups and
// the non-uniformity constants.
type Params struct {
	// Epsilon is the per-user privacy budget ε.
	Epsilon float64
	// N is the total number of users n.
	N int
	// M is the number of user groups m (one grid per group).
	M int
	// Alpha1 scales the 1-D non-uniformity error (paper α₁ = 0.7).
	Alpha1 float64
	// Alpha2 scales the 2-D non-uniformity error (paper α₂ = 0.03).
	Alpha2 float64
	// Mode selects the reporting design the noise terms are computed for:
	// FELIP divides users (n/m per grid at ε), SPL divides budget (n per grid
	// at ε/m), RS+FD sends every grid from every user at the amplified ε'.
	// The zero value is ModeFELIP, keeping every existing call site exact.
	Mode fo.ReportMode
}

// WithDefaults fills zero alphas with the paper's constants.
func (p Params) WithDefaults() Params {
	if p.Alpha1 == 0 {
		p.Alpha1 = DefaultAlpha1
	}
	if p.Alpha2 == 0 {
		p.Alpha2 = DefaultAlpha2
	}
	return p
}

// noiseOLH returns the per-cell squared noise error under OLH for a grid with
// L total cells. FELIP splits the population into M groups, inflating the
// variance m-fold: 4·m·e^ε / (n·(e^ε−1)²). SPL keeps all n users per grid but
// perturbs at ε/m. RS+FD keeps all n users at the amplified ε' and pays the
// fake-data inversion factor instead.
func (p Params) noiseOLH(L float64) float64 {
	switch p.Mode {
	case fo.ModeSPL:
		ee := math.Exp(p.Epsilon / float64(p.M))
		return 4 * ee / (float64(p.N) * (ee - 1) * (ee - 1))
	case fo.ModeRSFD:
		return p.noiseRSFD(fo.OLH, L)
	default:
		ee := math.Exp(p.Epsilon)
		return 4 * float64(p.M) * ee / (float64(p.N) * (ee - 1) * (ee - 1))
	}
}

// noiseGRR returns the per-cell squared noise error under GRR for a grid with
// L total cells: FELIP m·(e^ε+L−2) / (n·(e^ε−1)²), SPL the same at ε/m with
// no group factor, RS+FD the fake-data-corrected variance at ε'.
func (p Params) noiseGRR(L float64) float64 {
	switch p.Mode {
	case fo.ModeSPL:
		ee := math.Exp(p.Epsilon / float64(p.M))
		return (ee + L - 2) / (float64(p.N) * (ee - 1) * (ee - 1))
	case fo.ModeRSFD:
		return p.noiseRSFD(fo.GRR, L)
	default:
		ee := math.Exp(p.Epsilon)
		return float64(p.M) * (ee + L - 2) / (float64(p.N) * (ee - 1) * (ee - 1))
	}
}

// noiseHR returns the per-cell squared noise error under HR. Like OLH it is
// domain-independent: FELIP m·(e^ε+1)² / (n·(e^ε−1)²), SPL the same at ε/m
// with no group factor. RS+FD's fake-data inversion is defined for GRR and
// OLH only, so under that mode HR's noise is infinite — it can never enter
// an RS+FD plan.
func (p Params) noiseHR() float64 {
	switch p.Mode {
	case fo.ModeSPL:
		ee := math.Exp(p.Epsilon / float64(p.M))
		r := (ee + 1) / (ee - 1)
		return r * r / float64(p.N)
	case fo.ModeRSFD:
		return math.Inf(1)
	default:
		ee := math.Exp(p.Epsilon)
		r := (ee + 1) / (ee - 1)
		return float64(p.M) * r * r / float64(p.N)
	}
}

// noiseRSFD consults fo.RSFDVarianceCont — the continuous-L form of the
// estimator's own variance formula — so the planner and the estimator can
// never drift apart: the m² fake-data inflation the aggregator pays is
// exactly the quantity the golden-section search minimizes, which is what
// lets RS+FD plans shrink their grids relative to per-report-budget sizing.
func (p Params) noiseRSFD(proto fo.Protocol, L float64) float64 {
	return fo.RSFDVarianceCont(proto, p.Epsilon, L, p.M, p.N)
}

// noise returns the per-cell squared noise error of a grid with L total
// cells under proto: GRR's and HR's models, and OLH's for any other
// protocol.
func (p Params) noise(proto fo.Protocol, L float64) float64 {
	switch proto {
	case fo.GRR:
		return p.noiseGRR(L)
	case fo.HR:
		return p.noiseHR()
	default:
		return p.noiseOLH(L)
	}
}

// Err1D returns the expected squared error of a 1-D numerical grid with l
// cells answering a range of selectivity rx (Eqs 3–4): (α₁/l)² bias plus
// l·rx cells of noise.
func (p Params) Err1D(proto fo.Protocol, rx, l float64) float64 {
	bias := p.Alpha1 / l
	return bias*bias + l*rx*p.noise(proto, l)
}

// Err2DNumNum returns the expected squared error of a numerical×numerical 2-D
// grid with lx×ly cells answering a rectangle of selectivities rx, ry
// (Eqs 9–10): border-cell bias (2α₂(lx·rx+ly·ry)/(lx·ly))² plus
// lx·rx·ly·ry cells of noise.
func (p Params) Err2DNumNum(proto fo.Protocol, rx, ry, lx, ly float64) float64 {
	bias := 2 * p.Alpha2 * (lx*rx + ly*ry) / (lx * ly)
	return bias*bias + lx*rx*ly*ry*p.noise(proto, lx*ly)
}

// Err2DCatNum returns the expected squared error of a categorical×numerical
// 2-D grid (Eqs 11–12). The categorical axis has ly = d_cat cells (never
// binned); only the numerical axis (lx cells, selectivity rx) contributes
// non-uniformity: (2α₂·ry/lx)².
func (p Params) Err2DCatNum(proto fo.Protocol, rx, ry, lx, ly float64) float64 {
	bias := 2 * p.Alpha2 * ry / lx
	return bias*bias + lx*rx*ly*ry*p.noise(proto, lx*ly)
}

// ErrExact returns the expected squared error of a grid with no binning
// (categorical 1-D with L=d, or categorical×categorical with L=dx·dy):
// pure noise over the L·r cells a query touches, no bias.
func (p Params) ErrExact(proto fo.Protocol, r, L float64) float64 {
	return L * r * p.noise(proto, L)
}
