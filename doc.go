// Package deisago is a from-scratch Go reproduction of "Dask-Extended
// External Tasks for HPC/ML In Transit Workflows" (Gueroudji, Bigot,
// Raffin, Ross — SC-W 2023): a bridging model that couples MPI+X
// simulations with Dask-style distributed task-based analytics through
// external tasks — tasks the scheduler knows about but that are executed
// by the simulation, whose results are pushed directly into worker
// memory.
//
// The repository contains the complete system the paper describes plus
// every substrate it depends on, all implemented on the Go standard
// library only:
//
//   - internal/core — the contribution: external-task integration, deisa
//     virtual arrays, the naming scheme, bridges, the adaptor, contracts,
//     and the PDI deisa plugin;
//   - internal/dask — a Dask.distributed-like runtime (scheduler state
//     machine, workers, clients, scatter, futures, Variables, Queues,
//     heartbeats) extended with the external task state;
//   - internal/mpi, internal/sim — the message-passing substrate and the
//     Heat2D miniapp;
//   - internal/pdi — the PDI data interface with a YAML-subset parser and
//     $-expression evaluator (Listing 1);
//   - internal/ml, internal/linalg, internal/ndarray — incremental PCA,
//     SVD, and dense n-dimensional arrays;
//   - internal/netsim, internal/pfs, internal/h5, internal/cluster,
//     internal/vtime — the simulated platform: pruned fat-tree fabric,
//     Lustre-like parallel file system, HDF5-like chunked containers,
//     node allocation, and virtual-time accounting;
//   - internal/harness — end-to-end workflow runs for the five compared
//     systems and generators for every figure of the evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// cmd/experiments is the one CLI: it reproduces every figure at paper
// scale and runs single workflows (-system). The runnable examples are
// Example functions in internal/core, internal/harness and internal/sim,
// checked by `go test ./...`. bench/ (run with `bash bench/run.sh`) is
// the whole-run benchmark.
package deisago
