// Package dask implements a distributed task-based execution framework
// modelled on Dask.distributed: a centralized scheduler, a set of
// workers, and clients that submit task graphs, scatter data, and gather
// results. It reproduces the pieces of Dask the paper relies on — the
// task state machine, the scatter path, distributed Variables and Queues,
// and client heartbeats — plus the paper's contribution, a new "external"
// task state for tasks executed outside the cluster (see package core for
// the deisa layer built on top).
//
// All actors carry virtual clocks (package vtime); control messages and
// data transfers move across the simulated fabric (package netsim), and
// the scheduler's CPU is a shared FCFS resource, so scheduler overload —
// the effect the paper's external tasks eliminate — appears as queueing
// delay in virtual time.
package dask

import (
	"deisago/internal/metrics"
	"deisago/internal/vtime"
)

// Config holds the runtime cost model and protocol parameters.
type Config struct {
	// SchedulerMsgCost is the scheduler CPU time to handle one incoming
	// message (heartbeat, update-data, task-finished, variable op).
	SchedulerMsgCost vtime.Dur
	// SchedulerTaskCost is the scheduler CPU time per task for graph
	// registration and per state transition.
	SchedulerTaskCost vtime.Dur
	// ControlMsgBytes is the wire size of a small control message.
	ControlMsgBytes int64
	// MetadataBytesPerKey is the extra metadata wire size per key carried
	// by update-data and graph-submission messages.
	MetadataBytesPerKey int64
	// WorkerTaskOverhead is the worker-side fixed cost per task
	// (deserialization, dispatch).
	WorkerTaskOverhead vtime.Dur
	// SerializationBandwidth models memcpy/serialization of data payloads
	// at endpoints, in bytes/second; 0 disables the charge.
	SerializationBandwidth float64
	// MetadataEntryCost is the scheduler CPU time to process one entry of
	// a bulk metadata message (Client.SendMetadata). The DEISA1 baseline
	// refreshes the full decomposition metadata every timestep, which is
	// the scheduler overload the paper's external tasks remove.
	MetadataEntryCost vtime.Dur
	// Metrics, when set, is the registry the cluster instruments itself
	// against (per-kind message counters, task-state transitions, worker
	// memory gauges, the dask/* message totals). When nil, NewCluster
	// creates a private registry, so Cluster.Metrics is never nil.
	Metrics *metrics.Registry
	// WorkerMemoryLimit is the per-worker managed-memory limit in bytes.
	// When positive, every stored block is accounted in the worker's
	// ledger and the least-recently-used non-external blocks are spilled
	// to the cluster's private spill tier (a pfs.FS with
	// pfs.DefaultConfig; spill writes and unspill reads charge virtual-time
	// I/O there, block values stay in host memory) whenever the ledger
	// exceeds the limit; spilled blocks are transparently read back on
	// dependency gather.
	// 0 disables governance entirely (the zero-cost fast path).
	WorkerMemoryLimit int64
	// TieBreak, when non-nil, redirects the scheduler's benign tie-break
	// choices (ready-heap pop order, worker choice, spill victim) so the
	// schedule-space explorer (package simtest) can permute legal
	// schedules. nil — the default — keeps every production rule and
	// costs nothing. Must be set before NewCluster and never changed.
	TieBreak TieBreaker
}

// highWatermark is the pause threshold as a fraction of the effective
// memory limit (Dask's pause fraction): a worker whose ledger is at or
// above highWatermark*limit is "paused" — the scheduler stops assigning
// ready tasks to it and producers scattering to it back off in virtual
// time.
const highWatermark = 0.8

// DefaultConfig returns parameters calibrated against Dask.distributed's
// documented magnitudes (sub-millisecond per-task scheduler overhead,
// ~200 µs per message) that place the reproduced figures in the paper's
// range.
func DefaultConfig() Config {
	return Config{
		SchedulerMsgCost:       300e-6,
		SchedulerTaskCost:      200e-6,
		ControlMsgBytes:        1 << 10,
		MetadataBytesPerKey:    256,
		WorkerTaskOverhead:     100e-6,
		SerializationBandwidth: 2e9,
		MetadataEntryCost:      2e-4,
	}
}
