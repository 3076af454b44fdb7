// Package felip is a production-quality Go implementation of FELIP
// ("FELIP: A local Differentially Private approach to frequency estimation
// on multidimensional datasets", Costa Filho & Machado, EDBT 2023):
// answering multidimensional counting queries with point and range
// constraints over user data collected under ε-local differential privacy.
//
// The implementation lives under internal/:
//
//   - internal/core — the FELIP engine (OUG/OHG strategies, planning,
//     collection, post-processing, query answering), both as the one-call
//     simulated round (Collect) and as the deployment-grade split between
//     device-side Client and server-side Collector, with snapshot
//     persistence.
//   - internal/fo, grid, gridopt, postproc, estimate, query, dataset,
//     domain, metrics — the substrates: frequency oracles, variable-width
//     grids, error-model optimizers, Norm-Sub/consistency, response
//     matrices and λ-D IPF, the query model, and synthetic data.
//   - internal/baseline/hio and internal/baseline/hdg — the paper's
//     comparison systems, reimplemented from their original publications.
//   - internal/adaptive, internal/stream, internal/longitudinal — the
//     paper's future-work directions: two-phase equi-mass binning, windowed
//     streams, and memoized multi-round reporting with its budget
//     accounting.
//   - internal/wire and internal/httpapi — the JSON wire protocol and HTTP
//     aggregator service with its Go client.
//
// The root package carries the repository-wide benchmark suite
// (bench_test.go — one benchmark per paper figure) and the cross-module
// integration tests (integration_test.go). See README.md for a tour,
// DESIGN.md for the architecture and per-experiment index, and
// EXPERIMENTS.md for measured-vs-paper results.
package felip
