package core

import (
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/storage"
	"star/internal/workload/ycsb"
)

// contendLatch holds rec's latch while another goroutine spins on it,
// and fails if the spinner dies instead of acquiring it after release.
func contendLatch(t *testing.T, rec *storage.Record) {
	t.Helper()
	rec.Lock()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		rec.Lock() // held: spins through storage.SpinWait
		rec.Unlock()
	}()
	time.Sleep(5 * time.Millisecond)
	rec.Unlock()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("latch spinner panicked: %v", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("latch spinner never acquired the released latch")
	}
}

// TestSpinWaitAfterSimEngine pins the spin-wait reset: a simulated
// engine installs a virtual-time latch spin-wait, and a real engine
// built later in the same process must not inherit it. A contended
// latch would otherwise sleep on the stopped simulator, whose ErrStopped
// panic the real runtime swallows, ending the spinning worker silently.
func TestSpinWaitAfterSimEngine(t *testing.T) {
	s := rt.NewSim()
	ycsbCluster(t, s, 2, 1, 10, nil)
	s.Run(5 * time.Millisecond)
	s.Stop()

	r := rt.NewReal()
	wl := ycsb.New(ycsb.Config{Partitions: 4, RecordsPerPartition: 64})
	e := New(Config{
		RT: r, Nodes: 2, WorkersPerNode: 2, Workload: wl,
		Iteration: 5 * time.Millisecond, Seed: 4,
	})
	defer r.Stop()
	// Partition 0's worker reads this row every few transactions, so it
	// spins on the latch too.
	contendLatch(t, e.nodes[0].db.Table(ycsb.TableID).Get(0, wl.Key(0, 0)))
	before := e.Stats().Committed
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Committed <= before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if e.Stats().Committed <= before {
		t.Fatal("the real engine stopped committing after the contended latch")
	}
}
