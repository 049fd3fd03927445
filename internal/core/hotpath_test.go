package core

import (
	"runtime"
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/txn"
	"star/internal/workload/ycsb"
)

// newHotPathHarness builds an unstarted 2-node cluster on the real
// runtime so a test can drive node 0's worker 0 synchronously: no
// coordinator, no phase switching — just the per-transaction execution
// path the workers run in steady state. Node 1 is marked down so flushed
// envelopes are dropped at the network instead of piling up in an
// undrained inbox (the send path is still fully exercised).
func newHotPathHarness(records int) (*Engine, *worker) {
	wl := ycsb.New(ycsb.Config{
		Partitions:          2, // Nodes × WorkersPerNode
		RecordsPerPartition: records,
	})
	e := build(Config{
		RT:             rt.NewReal(),
		Nodes:          2,
		FullReplicas:   1,
		WorkersPerNode: 1,
		Workload:       wl,
		Seed:           1,
		Net:            simnet.Config{Nodes: 3},
	})
	e.net.SetDown(1, true)
	w := e.nodes[0].workers[0]
	w.strm.SetEpoch(2)
	return e, w
}

// singleReq pre-builds a single-partition request on partition 0 (the
// partition node 0's worker masters).
func singleReq(w *worker) *txn.Request {
	return txn.NewRequest(w.gen.Single(0), 0)
}

// TestExecSerialZeroAllocs pins that a steady-state single-partition
// commit (no insert) allocates nothing — not in the context, the
// read/write set, the commit, the replication append, or the monitor
// bookkeeping. Request generation is measured with the rest of the loop
// body in TestPartitionedStepAllocBudget.
func TestExecSerialZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, w := newHotPathHarness(1024)
	req := singleReq(w)
	w.execSerial(req, 2) // warm the scratch buffers
	allocs := testing.AllocsPerRun(10_000, func() {
		w.execSerial(req, 2)
	})
	if allocs != 0 {
		t.Fatalf("execSerial allocates %v per committed transaction, want 0", allocs)
	}
	if w.committed == 0 {
		t.Fatal("no commits — the measurement exercised nothing")
	}
}

// allocsPerOp runs f n times after a warm-up call and returns the mean
// heap allocations and bytes per call. Unlike testing.AllocsPerRun it
// does not floor the average, so a replication envelope allocated once
// per few hundred commits shows up as its share instead of vanishing.
func allocsPerOp(n int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestExecSerialByteBudget pins the bytes the commit path allocates: the
// replication envelopes (one set of buffers per shipped envelope, sized
// from the previous one) are all that remains, at a few hundred bytes
// per committed transaction.
func TestExecSerialByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, w := newHotPathHarness(1024)
	req := singleReq(w)
	_, bytes := allocsPerOp(50_000, func() { w.execSerial(req, 2) })
	t.Logf("execSerial: %.0f B per committed transaction", bytes)
	if bytes > 300 {
		t.Fatalf("execSerial allocates %.0f B per committed transaction, budget 300", bytes)
	}
}

// TestPartitionedStepAllocBudget pins the whole partitioned-phase loop
// body — generate, route, execute, replicate, recycle — at no more than
// one allocation and 400 bytes per transaction: the generator refills
// the transaction it handed out last instead of building a new one.
func TestPartitionedStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, w := newHotPathHarness(1024)
	if w.rec == nil {
		t.Fatal("the YCSB generator does not implement workload.Recycler")
	}
	committed := w.committed
	allocs, bytes := allocsPerOp(50_000, func() { w.partitionedStep(0, 0, 2, 0) })
	t.Logf("partitioned step: %.3f allocs, %.0f B per transaction", allocs, bytes)
	if allocs > 1 || bytes > 400 {
		t.Fatalf("partitioned step: %.3f allocs and %.0f B per transaction, budget 1 and 400", allocs, bytes)
	}
	if w.committed-committed < 50_000 {
		t.Fatalf("only %d of 50001 steps committed", w.committed-committed)
	}
}

// TestForcedDrainSliceRunsPastDeadline pins the backlog-forced slice: a
// worker that picks up its single-master command after the slice's
// deadline still executes every request queued at the slice's start,
// while an ordinary slice in the same position executes none.
func TestForcedDrainSliceRunsPastDeadline(t *testing.T) {
	_, w := newHotPathHarness(1024)
	const queued = 20
	enqueue := func() {
		for i := 0; i < queued; i++ {
			if !w.n.masterQ.TrySend(txn.NewRequest(w.gen.Cross(i%2), 0)) {
				t.Fatal("master queue full")
			}
		}
	}
	enqueue()
	late := msgStartPhase{Phase: SingleMaster, Epoch: 2, Master: 0, Deadline: 0}
	w.n.armDrain(late)
	w.runSingleMaster(late)
	if w.committed != 0 || w.n.masterQ.Len() != queued {
		t.Fatalf("ordinary late slice committed %d, left %d queued; want 0 and %d",
			w.committed, w.n.masterQ.Len(), queued)
	}

	forced := late
	forced.Drain = true
	w.n.armDrain(forced)
	w.runSingleMaster(forced)
	if w.committed != queued || w.n.masterQ.Len() != 0 {
		t.Fatalf("forced late slice committed %d, left %d queued; want %d and 0",
			w.committed, w.n.masterQ.Len(), queued)
	}

	// Overtime covers only what was queued at the start: a queue that
	// grows mid-slice does not keep the slice alive.
	enqueue()
	w.n.armDrain(forced)
	enqueue()
	w.committed = 0
	w.runSingleMaster(forced)
	if w.committed != queued || w.n.masterQ.Len() != queued {
		t.Fatalf("forced slice committed %d, left %d queued; want %d and %d",
			w.committed, w.n.masterQ.Len(), queued, queued)
	}
}

// TestExecOCCAllocBudget pins the single-master path: with the write-set
// sort, validation, apply and replication all reusing worker scratch, a
// steady-state OCC commit stays within a one-allocation budget
// (AllocsPerRun floors the average, so this allows only stray amortised
// growth, not per-commit allocation).
func TestExecOCCAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, w := newHotPathHarness(1024)
	cmd := msgStartPhase{Phase: SingleMaster, Epoch: 2, Master: 0, Deadline: time.Hour}
	reqs := make([]*txn.Request, 64)
	for i := range reqs {
		reqs[i] = txn.NewRequest(w.gen.Cross(i%2), 0)
	}
	for _, r := range reqs {
		w.execOCC(r, cmd)
	}
	i := 0
	allocs := testing.AllocsPerRun(10_000, func() {
		w.execOCC(reqs[i%len(reqs)], cmd)
		i++
	})
	if allocs > 1 {
		t.Fatalf("execOCC allocates %v per committed transaction, budget 1", allocs)
	}
}

// BenchmarkExecSerial measures the partitioned-phase commit path:
// generate-free, steady-state, single-partition YCSB transactions
// against the real runtime. Run with -benchmem; the acceptance bar is
// 0 allocs/op.
func BenchmarkExecSerial(b *testing.B) {
	_, w := newHotPathHarness(8192)
	reqs := make([]*txn.Request, 128)
	for i := range reqs {
		reqs[i] = singleReq(w)
	}
	for _, r := range reqs {
		w.execSerial(r, 2) // warm scratch + first-touch dirty marks
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.execSerial(reqs[i%len(reqs)], 2)
		if i%4096 == 4095 {
			w.strm.Flush() // bounded buffering; envelopes drop at the downed link
		}
	}
}

// BenchmarkExecSerialWithGen includes request generation, routing and
// recycling — the runPartitioned loop body (partitionedStep) for a
// single-partition transaction.
func BenchmarkExecSerialWithGen(b *testing.B) {
	_, w := newHotPathHarness(8192)
	w.partitionedStep(0, 0, 2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.partitionedStep(0, 0, 2, 0)
		if i%4096 == 4095 {
			w.strm.Flush()
		}
	}
}

// BenchmarkExecOCC measures the single-master OCC commit path (lock,
// validate, apply, release, replicate) on pre-generated cross-partition
// transactions with no concurrent conflicts.
func BenchmarkExecOCC(b *testing.B) {
	_, w := newHotPathHarness(8192)
	cmd := msgStartPhase{Phase: SingleMaster, Epoch: 2, Master: 0, Deadline: time.Hour}
	reqs := make([]*txn.Request, 128)
	for i := range reqs {
		reqs[i] = txn.NewRequest(w.gen.Cross(i%2), 0)
	}
	for _, r := range reqs {
		w.execOCC(r, cmd)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.execOCC(reqs[i%len(reqs)], cmd)
		if i%4096 == 4095 {
			w.strm.Flush()
		}
	}
}
