// Package workload defines the interface every benchmark workload
// implements, plus the two workloads the paper evaluates (subpackages
// ycsb and tpcc).
package workload

import (
	"star/internal/storage"
	"star/internal/txn"
)

// Workload builds and populates a database and produces generators.
type Workload interface {
	// Name returns the workload name ("ycsb", "tpcc").
	Name() string
	// BuildDB creates the schema for a node holding the given partitions
	// (nil holds = full replica).
	BuildDB(nparts int, holds []bool) *storage.DB
	// Load deterministically populates the partitions the node holds;
	// replicas of a partition load byte-identical data.
	Load(db *storage.DB)
	// NewGen returns a transaction generator. Generators with the same
	// seed produce the same sequence (Calvin replays inputs).
	NewGen(seed int64) Gen
}

// Gen produces transaction instances. One generator per worker thread.
type Gen interface {
	// Mixed returns the next transaction for a client homed at partition
	// `home`: cross-partition with the workload's configured probability.
	Mixed(home int) txn.Procedure
	// Single returns a single-partition transaction for `home`.
	Single(home int) txn.Procedure
	// Cross returns a cross-partition transaction homed at `home`.
	Cross(home int) txn.Procedure
}

// Recycler is optionally implemented by a Gen that can reuse a procedure
// it produced once the engine is finished with it. The engine calls
// Recycle only for a procedure that ran to completion inside the worker
// that generated it and was not retained (never for one routed to
// another node or queued), so the generator may hand the same instance,
// and the buffers it owns, out again on its next call.
type Recycler interface {
	Recycle(p txn.Procedure)
}
