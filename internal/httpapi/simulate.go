package httpapi

import (
	"fmt"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
)

// Simulate drives the server's collection round in-process with a synthetic
// population drawn from the named generator, then finalizes the round so
// /v1/query is immediately usable. Intended for demos and smoke tests; real
// deployments receive reports over HTTP instead.
func Simulate(s *Server, genName string, users int, seed uint64) error {
	if users < 1 {
		return fmt.Errorf("httpapi: need at least 1 simulated user")
	}
	gen, err := dataset.ByName(genName)
	if err != nil {
		return err
	}
	if seed == 0 {
		seed = fo.AutoSeed()
	}
	// Keep the current round: a concurrent AdvanceRound must not make the
	// simulation straddle two rounds.
	r := s.current()
	ds := gen.Generate(s.schema, users, seed)
	device, err := core.NewModeClient(r.col.Specs(), r.col.Mode(), r.col.Epsilon(), seed+1)
	if err != nil {
		return err
	}
	for row := 0; row < users; row++ {
		reps, err := device.PerturbAll(r.col.AssignGroup(), func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			return err
		}
		for _, rep := range reps {
			if err := r.col.Add(rep.Report); err != nil {
				return err
			}
		}
	}
	_, err = s.finalizeRound(r)
	return err
}
