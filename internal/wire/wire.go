// Package wire defines the JSON messages exchanged between FELIP clients
// (user devices) and the aggregator service: the published collection plan,
// individual ε-LDP reports, and query responses. It converts between the
// wire representation and the in-memory types of internal/core.
package wire

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"

	"felip/internal/core"
	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/grid"
)

// AttributeDTO describes one schema attribute on the wire.
type AttributeDTO struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "numerical" | "categorical"
	Size int    `json:"size"`
}

// GridDTO describes one grid of the plan on the wire. Axes travel as
// explicit boundary lists, so variable-width (equi-mass) cells round-trip
// exactly.
type GridDTO struct {
	AttrX   int    `json:"attr_x"`
	AttrY   int    `json:"attr_y"` // -1 for 1-D grids
	BoundsX []int  `json:"bounds_x"`
	BoundsY []int  `json:"bounds_y,omitempty"`
	Proto   string `json:"proto"` // "GRR" | "OLH" | "HR"
}

// PlanMessage is the aggregator's published plan: everything a device needs
// to produce its report(s). Mode names the round's reporting mode ("SPL",
// "RS+FD"); it is empty for FELIP so v1 plans keep their exact JSON and
// fingerprint.
type PlanMessage struct {
	Epsilon float64 `json:"epsilon"`
	Mode    string  `json:"mode,omitempty"`
	// Longitudinal carries the round's two-stage memoized-reporting budgets;
	// absent (nil) on every one-shot plan, so v1 plans keep their exact JSON
	// and fingerprint. When set, Epsilon is the per-round budget ε_1.
	Longitudinal *fo.Longitudinal `json:"longitudinal,omitempty"`
	Attributes   []AttributeDTO   `json:"attributes"`
	Grids        []GridDTO        `json:"grids"`
}

// ReportMode parses the plan's reporting mode (empty = FELIP).
func (m PlanMessage) ReportMode() (fo.ReportMode, error) {
	return fo.ParseReportMode(m.Mode)
}

// ModeName returns a mode's wire spelling: the empty string for FELIP (v1
// artifacts never carried a mode and must keep decoding as FELIP), the
// conventional name otherwise.
func ModeName(mode fo.ReportMode) string {
	if mode == fo.ModeFELIP {
		return ""
	}
	return mode.String()
}

// ReportMessage is one user's ε-LDP report on the wire.
//
// ReportID is a device-chosen idempotency key: the aggregator counts at most
// one report per key, so a device that never saw its acknowledgment can
// resubmit the same message safely. The key is minted independently of the
// user's true value (see NewReportID), so it carries no information the
// ε-LDP report doesn't already reveal.
type ReportMessage struct {
	ReportID string `json:"report_id"`
	Group    int    `json:"group"`
	Proto    string `json:"proto"`
	Value    int    `json:"value"`
	Seed     uint64 `json:"seed,omitempty"`
	// Mode names the reporting mode the report was produced under; empty
	// means FELIP, so v1 reports decode unchanged.
	Mode string `json:"mode,omitempty"`
	// Attr is the reported grid's primary attribute index; nil when absent
	// (FELIP v1 clients never send it). Non-FELIP reports carry it so the
	// server can cross-check each of a user's m reports against the plan.
	Attr *int `json:"attr,omitempty"`
	// Longitudinal marks a report produced by the memoized two-stage chain.
	// A longitudinal server refuses reports without the claim, and a one-shot
	// server refuses reports carrying it: mixing the two within a round would
	// corrupt the estimator's inversion. Absent on every v1 report.
	Longitudinal bool `json:"longitudinal,omitempty"`
}

// QueryResponse carries a query answer. Round identifies the collection
// round the answer came from — under multi-round serving the aggregator keeps
// answering from the last finalized round while the next one collects.
type QueryResponse struct {
	Query         string  `json:"query"`
	Estimate      float64 `json:"estimate"`
	ExpectedError float64 `json:"expected_error,omitempty"`
	N             int     `json:"n"`
	Round         int     `json:"round,omitempty"`
}

// BatchQueryRequest asks the aggregator to answer many WHERE expressions in
// one round trip (POST /v1/query); the server answers them concurrently.
// Round optionally targets a specific archived collection round (0 = the
// round currently serving); servers without an archive refuse any other
// round rather than silently answering from the current one.
type BatchQueryRequest struct {
	Queries []string `json:"queries"`
	Round   int      `json:"round,omitempty"`
}

// BatchQueryItem is one batch entry's outcome: either an estimate (with the
// optional a-priori expected error) or a per-query error. A failed query
// never fails the batch.
type BatchQueryItem struct {
	Query         string  `json:"query"`
	Estimate      float64 `json:"estimate"`
	ExpectedError float64 `json:"expected_error,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// BatchQueryResponse carries the batch's results in request order, all
// answered from the same collection round.
type BatchQueryResponse struct {
	Round   int              `json:"round"`
	N       int              `json:"n"`
	Results []BatchQueryItem `json:"results"`
}

// reportProto parses a report's protocol name. Only an oracle whose report
// is the (value, seed) pair travels as a report: OUE's L-bit report has no
// wire form, and no round could fold one.
func reportProto(name string) (fo.Protocol, error) {
	p, err := fo.ParseProtocol(name)
	if err == nil && !p.HasPairReport() {
		err = fmt.Errorf("wire: %v reports have no wire form", p)
	}
	return p, err
}

// NewPlanMessage encodes a schema and grid plan for publication under the
// round's reporting mode and (optionally) longitudinal parameters; long is
// nil for one-shot rounds, keeping the message byte-identical to v1.
func NewPlanMessage(schema *domain.Schema, eps float64, mode fo.ReportMode, long *fo.Longitudinal, specs []core.GridSpec) PlanMessage {
	msg := PlanMessage{Epsilon: eps, Mode: ModeName(mode), Longitudinal: long}
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		msg.Attributes = append(msg.Attributes, AttributeDTO{
			Name: a.Name,
			Kind: a.Kind.String(),
			Size: a.Size,
		})
	}
	for _, sp := range specs {
		dto := GridDTO{
			AttrX:   sp.AttrX,
			AttrY:   sp.AttrY,
			BoundsX: sp.AxisX.Boundaries(),
			Proto:   sp.Proto.String(),
		}
		if !sp.Is1D() {
			dto.BoundsY = sp.AxisY.Boundaries()
		}
		msg.Grids = append(msg.Grids, dto)
	}
	return msg
}

// Fingerprint returns a CRC32-IEEE over the plan's canonical serialization:
// epsilon, every attribute, and every grid's axes and protocol in fixed
// order. Two nodes (or two restarts of one node) produce the same fingerprint
// iff they planned the identical round, so a durable snapshot stamped with it
// can refuse to restore into a server whose flags drifted.
func (m PlanMessage) Fingerprint() uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	put(math.Float64bits(m.Epsilon))
	put(uint64(len(m.Attributes)))
	for _, a := range m.Attributes {
		str(a.Name)
		str(a.Kind)
		put(uint64(a.Size))
	}
	put(uint64(len(m.Grids)))
	for _, g := range m.Grids {
		put(uint64(uint32(int32(g.AttrX))))
		put(uint64(uint32(int32(g.AttrY))))
		str(g.Proto)
		put(uint64(len(g.BoundsX)))
		for _, b := range g.BoundsX {
			put(uint64(uint32(int32(b))))
		}
		put(uint64(len(g.BoundsY)))
		for _, b := range g.BoundsY {
			put(uint64(uint32(int32(b))))
		}
	}
	// The mode joins the canonical form only when set, so every FELIP plan —
	// including those fingerprinted by v1 snapshots — keeps its exact value.
	if m.Mode != "" {
		str("mode")
		str(m.Mode)
	}
	// Likewise the longitudinal budgets: one-shot plans (nil) keep their v1
	// fingerprint; longitudinal plans bind ε_perm and ε_1 into it, so a memo
	// or snapshot drawn under different budgets can never silently match.
	if m.Longitudinal != nil {
		str("longitudinal")
		put(math.Float64bits(m.Longitudinal.EpsPerm))
		put(math.Float64bits(m.Longitudinal.Eps1))
	}
	return h.Sum32()
}

// Schema reconstructs the schema from the plan.
func (m PlanMessage) Schema() (*domain.Schema, error) {
	attrs := make([]domain.Attribute, len(m.Attributes))
	for i, dto := range m.Attributes {
		var kind domain.Kind
		switch dto.Kind {
		case "numerical":
			kind = domain.Numerical
		case "categorical":
			kind = domain.Categorical
		default:
			return nil, fmt.Errorf("wire: attribute %q has unknown kind %q", dto.Name, dto.Kind)
		}
		attrs[i] = domain.Attribute{Name: dto.Name, Kind: kind, Size: dto.Size}
	}
	return domain.NewSchema(attrs...)
}

// Specs reconstructs the grid plan from the message, validating it against
// the reconstructed schema.
func (m PlanMessage) Specs() ([]core.GridSpec, error) {
	schema, err := m.Schema()
	if err != nil {
		return nil, err
	}
	specs := make([]core.GridSpec, 0, len(m.Grids))
	for i, dto := range m.Grids {
		proto, err := fo.ParseProtocol(dto.Proto)
		if err != nil {
			return nil, fmt.Errorf("wire: grid %d: %w", i, err)
		}
		if dto.AttrX < 0 || dto.AttrX >= schema.Len() {
			return nil, fmt.Errorf("wire: grid %d: attr_x %d out of range", i, dto.AttrX)
		}
		axX, err := grid.NewCustomAxis(schema.Attr(dto.AttrX).Size, dto.BoundsX)
		if err != nil {
			return nil, fmt.Errorf("wire: grid %d: %w", i, err)
		}
		sp := core.GridSpec{AttrX: dto.AttrX, AttrY: dto.AttrY, AxisX: axX, Proto: proto}
		if dto.AttrY >= 0 {
			if dto.AttrY >= schema.Len() {
				return nil, fmt.Errorf("wire: grid %d: attr_y %d out of range", i, dto.AttrY)
			}
			axY, err := grid.NewCustomAxis(schema.Attr(dto.AttrY).Size, dto.BoundsY)
			if err != nil {
				return nil, fmt.Errorf("wire: grid %d: %w", i, err)
			}
			sp.AxisY = axY
		} else {
			sp.AttrY = -1
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("wire: plan has no grids")
	}
	return specs, nil
}

// NewReportMessage encodes a core report for the wire under the given
// idempotency key (see NewReportID).
func NewReportMessage(id string, r core.Report) ReportMessage {
	return ReportMessage{ReportID: id, Group: r.Group, Proto: r.Proto.String(), Value: r.Value, Seed: r.Seed}
}

// NewModeReportMessage encodes one mode-produced report: FELIP reports stay
// byte-identical to NewReportMessage (no mode, no attr), non-FELIP reports
// carry the mode name and the grid's attribute index.
func NewModeReportMessage(id string, mode fo.ReportMode, r core.ModeReport) ReportMessage {
	msg := NewReportMessage(id, r.Report)
	if mode != fo.ModeFELIP {
		msg.Mode = ModeName(mode)
		attr := r.Attr
		msg.Attr = &attr
	}
	return msg
}

// NewLongitudinalReportMessage encodes one memoized two-stage report. The
// longitudinal claim travels with the report so the server can refuse a
// one-shot report into a longitudinal round (and vice versa) instead of
// silently folding values drawn from a different channel.
func NewLongitudinalReportMessage(id string, r core.Report) ReportMessage {
	msg := NewReportMessage(id, r)
	msg.Longitudinal = true
	return msg
}

// MaxReportIDLen bounds the device-chosen idempotency key.
const MaxReportIDLen = 128

// NewReportID mints a fresh idempotency key from the device's entropy pool.
// The key is drawn independently of the user's record, so its reuse across
// retries reveals only "same submission", never anything about the value.
func NewReportID() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; refusing to produce
		// a weak or colliding key is the only safe reaction.
		panic(fmt.Sprintf("wire: reading entropy for report id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Validate checks the wire-level invariants every report must satisfy before
// it is considered: key present and bounded, protocol known, group and value
// non-negative. Range checks against the round's actual plan (group count,
// grid sizes) are the collector's job.
func (m ReportMessage) Validate() error {
	if m.ReportID == "" {
		return fmt.Errorf("wire: report missing report_id")
	}
	if len(m.ReportID) > MaxReportIDLen {
		return fmt.Errorf("wire: report_id of %d bytes exceeds %d", len(m.ReportID), MaxReportIDLen)
	}
	if _, err := reportProto(m.Proto); err != nil {
		return err
	}
	if m.Group < 0 {
		return fmt.Errorf("wire: negative group %d", m.Group)
	}
	if m.Value < 0 {
		return fmt.Errorf("wire: negative report value %d", m.Value)
	}
	if _, err := fo.ParseReportMode(m.Mode); err != nil {
		return err
	}
	if m.Attr != nil && *m.Attr < 0 {
		return fmt.Errorf("wire: negative attr %d", *m.Attr)
	}
	if m.Longitudinal {
		if m.Mode != "" {
			return fmt.Errorf("wire: longitudinal report cannot also claim mode %q", m.Mode)
		}
		if m.Proto != "GRR" {
			return fmt.Errorf("wire: longitudinal reports are GRR two-stage chains, got %q", m.Proto)
		}
	}
	return nil
}

// Report decodes the wire message into a core report.
func (m ReportMessage) Report() (core.Report, error) {
	proto, err := reportProto(m.Proto)
	if err != nil {
		return core.Report{}, err
	}
	return core.Report{Group: m.Group, Proto: proto, Value: m.Value, Seed: m.Seed}, nil
}
