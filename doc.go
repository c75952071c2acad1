// Package cumulon is a from-scratch Go reproduction of "Cumulon:
// Optimizing Statistical Data Analysis in the Cloud" (Huang, Babu, Yang;
// SIGMOD 2013): a system for developing and intelligently deploying
// matrix-based big-data analysis programs in the cloud.
//
// The implementation lives under internal/:
//
//   - lang      — the matrix program language (AST, parser, interpreter)
//   - plan      — logical rewrites, job cutting, operator fusion, splits
//   - exec      — the Cumulon engine: map-only multi-input jobs over tiles
//   - mapred    — the MapReduce/SystemML-style comparison baseline
//   - dfs/store — the HDFS-like substrate and the tiled matrix store
//   - cloud     — machine catalog, hardware profiles, hourly billing
//   - model/sim — benchmark-calibrated task models and the cluster simulator
//   - opt       — the cost-based deployment optimizer (the paper's core)
//   - core      — the Session facade tying everything together
//   - workloads — GNMF, RSVD, regression, product chains
//   - bench     — the experiment harness regenerating the evaluation
//
// Entry points: cmd/cumulon (run programs; -optimize lets the deployment
// optimizer pick the cluster first), cmd/cumulon-bench (regenerate the
// evaluation), cmd/cumulond (the multi-tenant job service). See README.md
// for a tour, DESIGN.md for the architecture and the experiment index, and
// EXPERIMENTS.md for reproduction results.
package cumulon
