package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/txn"
	"star/internal/workload"
	"star/internal/workload/ycsb"
)

// recyclingWorkload wraps YCSB so every procedure the engine generates
// or hands back is checked against the recycling contract: a procedure
// that crossed partitions (deferred to the master, or run there under
// OCC) is neither recycled nor handed out a second time.
type recyclingWorkload struct {
	*ycsb.Workload
	recycled atomic.Int64
	mu       sync.Mutex
	broken   []string
}

func (w *recyclingWorkload) NewGen(seed int64) workload.Gen {
	return &recyclingGen{w: w, g: w.Workload.NewGen(seed).(*ycsb.Gen), cross: map[txn.Procedure]bool{}}
}

func (w *recyclingWorkload) violation(msg string) {
	w.mu.Lock()
	w.broken = append(w.broken, msg)
	w.mu.Unlock()
}

func (w *recyclingWorkload) check(t *testing.T) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.broken) > 0 {
		t.Fatalf("%d recycling violations, first: %s", len(w.broken), w.broken[0])
	}
	if w.recycled.Load() == 0 {
		t.Fatal("no procedure was recycled: the check exercised nothing")
	}
}

// recyclingGen is one worker's generator; only that worker calls it.
type recyclingGen struct {
	w     *recyclingWorkload
	g     *ycsb.Gen
	cross map[txn.Procedure]bool
}

func (g *recyclingGen) Mixed(home int) txn.Procedure  { return g.issue(g.g.Mixed(home)) }
func (g *recyclingGen) Single(home int) txn.Procedure { return g.issue(g.g.Single(home)) }
func (g *recyclingGen) Cross(home int) txn.Procedure  { return g.issue(g.g.Cross(home)) }

func (g *recyclingGen) issue(p txn.Procedure) txn.Procedure {
	if g.cross[p] {
		g.w.violation("a cross-partition procedure was handed out again")
	}
	if txn.NewRequest(p, 0).Cross {
		g.cross[p] = true
	}
	return p
}

func (g *recyclingGen) Recycle(p txn.Procedure) {
	if g.cross[p] {
		g.w.violation("a cross-partition procedure was recycled")
	}
	g.w.recycled.Add(1)
	g.g.Recycle(p)
}

func recyclingConfig(r rt.Runtime) (Config, *recyclingWorkload) {
	wl := &recyclingWorkload{Workload: ycsb.New(ycsb.Config{
		Partitions: 4, RecordsPerPartition: 256, CrossPct: 30,
	})}
	return Config{
		RT:             r,
		Nodes:          2,
		WorkersPerNode: 2,
		Workload:       wl,
		Iteration:      2 * time.Millisecond,
		Seed:           3,
	}, wl
}

// TestDeferredProcsNeverRecycled runs a mixed workload on the simulator:
// single-partition procedures come back to the generator, deferred ones
// never do, and the replicas still converge.
func TestDeferredProcsNeverRecycled(t *testing.T) {
	s := rt.NewSim()
	cfg, wl := recyclingConfig(s)
	e := New(cfg)
	s.Run(40 * time.Millisecond)
	if e.Stats().Extra["deferred"] == 0 {
		t.Fatal("nothing was deferred to the master")
	}
	settle(s, e, 20*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	wl.check(t)
}

// TestPartitionedLoopRealRuntime runs the recycling partitioned loop on
// the real runtime, one goroutine per worker, so the race detector (CI
// runs this package under -race) sees generators, routers and appliers
// interleave for real.
func TestPartitionedLoopRealRuntime(t *testing.T) {
	r := rt.NewReal()
	cfg, wl := recyclingConfig(r)
	cfg.Iteration = 5 * time.Millisecond
	e := New(cfg)
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Committed < 2000 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	e.Freeze()
	time.Sleep(100 * time.Millisecond)
	err := e.CheckReplicaConsistency()
	committed := e.Stats().Committed
	r.Stop()
	if committed < 2000 {
		t.Fatalf("only %d commits on the real runtime", committed)
	}
	if err != nil {
		t.Fatal(err)
	}
	wl.check(t)
}
