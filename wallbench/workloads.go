package main

import (
	"math/rand"
	"sort"
	"time"

	"star/internal/txn"
	"star/internal/workload"
	"star/internal/workload/tpcc"
	"star/internal/workload/ycsb"
)

// Cluster shape of every workload: 2 nodes × 1 worker, which is one
// worker per CPU on a 2-vCPU host. Node 0 is the full replica and hosts
// the coordinator; node 1 is the partial replica and hosts the front door
// the session client dials.
const (
	nodes          = 2
	workersPerNode = 1
	partitions     = nodes * workersPerNode
	doorNode       = 1
)

// spec describes one workload: its data and transaction mix, its
// transport, and the lengths of the run's phases.
type spec struct {
	name string

	// Exactly one of ycsbRows (> 0) or tpcc is set.
	ycsbRows  int // YCSB rows per partition
	ycsbCross int // YCSB cross-partition percentage
	tpcc      *tpcc.Config

	tcp bool // two tcpnet sides over loopback instead of simnet
	wal bool // recovery logs in a scratch LogDir

	trials int           // independent trials, each on a fresh cluster
	warmup time.Duration // load before each trial's window
	window time.Duration // each trial's measured window
}

// clientRate is the session client's request rate (writes and reads).
// Faster, the in-process sender falls behind its schedule: at 400/s it
// sent more than 1 ms late on ~38% of requests.
const clientRate = 100

// The full-size run: six trials, each warmed up for a second.
const (
	trials = 6
	warmup = time.Second
)

// specs are the benchmark's workloads at full size.
var specs = []spec{
	// Partitioned-phase serial execution only, on data that fits in cache:
	// bypasses occ, tcpnet/wire and wal.
	{name: "ycsb-local", ycsbRows: 10_000, ycsbCross: 0},
	// All work on the master: deferral through the wire codec over real
	// sockets, occ, cache-missing lookups in ~0.5 GB of rows.
	{name: "ycsb-cross-tcp", ycsbRows: 200_000, ycsbCross: 100, tcp: true},
	// Write-heavy: inserts, secondary indexes, row-sized replication,
	// recovery logs and GC under a growing heap.
	{name: "tpcc-wal", tpcc: tpccConfig(10, 300, 10_000), wal: true},
}

func tpccConfig(districts, customers, items int) *tpcc.Config {
	c := tpcc.Config{
		Warehouses:           partitions,
		Districts:            districts,
		CustomersPerDistrict: customers,
		Items:                items,
	}
	c.SetCrossPct(0)
	return &c
}

// specByName returns a workload at full size; the caller sets its window.
func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			s.trials, s.warmup = trials, warmup
			return s, true
		}
	}
	return spec{}, false
}

func workloadNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	sort.Strings(out)
	return out
}

// newWorkload builds a fresh, unwrapped instance of the spec's workload.
// Every codec of one cluster is built from an identically configured
// instance.
func (s spec) newWorkload() workload.Workload {
	if s.tpcc != nil {
		return tpcc.New(*s.tpcc)
	}
	return ycsb.New(ycsb.Config{
		Partitions:          partitions,
		RecordsPerPartition: s.ycsbRows,
		CrossPct:            s.ycsbCross,
	})
}

// sessionOp is one pair of the session client: a write and a read-only
// transaction over the same row, run in that order.
type sessionOp struct {
	write, read txn.Procedure
	// mustAbort marks a write generated to roll back (TPC-C's invalid
	// item NewOrder): ErrAborted is its correct outcome.
	mustAbort bool
}

// sessionGen returns the session client's pair generator. It draws from
// its own seeded stream, so the same seed gives the same requests.
func (s spec) sessionGen(w workload.Workload, seed int64) func() sessionOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5e55))
	if s.tpcc != nil {
		return tpccSession(w.(*tpcc.Workload), w.NewGen(seed^0x7cc), rng)
	}
	y := w.(*ycsb.Workload)
	val := make([]byte, 8)
	return func() sessionOp {
		part := []int{rng.Intn(partitions)}
		row := []int{rng.Intn(s.ycsbRows)}
		rng.Read(val)
		return sessionOp{write: y.WriteTxn(part, row, val), read: y.ReadTxn(part, row)}
	}
}

// tpccSession pairs each generated NewOrder or Payment with an
// Order-Status query of the customer it touched.
func tpccSession(w *tpcc.Workload, g workload.Gen, rng *rand.Rand) func() sessionOp {
	return func() sessionOp {
		p := g.Mixed(rng.Intn(partitions))
		status := &tpcc.OrderStatusTxn{W: w}
		op := sessionOp{write: p, read: status}
		switch t := p.(type) {
		case *tpcc.NewOrderTxn:
			status.WID, status.CWID, status.CDID, status.CID = t.WID, t.WID, t.DID, t.CID
			op.mustAbort = t.Invalid
		case *tpcc.PaymentTxn:
			status.WID, status.CWID, status.CDID, status.CID = t.CWID, t.CWID, t.CDID, t.CID
			status.ByName, status.CLast = t.ByName, t.CLast
		default:
			panic("wallbench: the NewOrder/Payment mix generated " + p.Name())
		}
		return op
	}
}
