package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"star/internal/client"
	"star/internal/core"
	"star/internal/metrics"
	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/storage"
	"star/internal/tcpnet"
	"star/internal/transport"
	"star/internal/wal"
	"star/internal/wire"
	"star/internal/workload"
)

// cluster is one running benchmark cluster. The simnet workloads run one
// engine hosting both nodes; the tcp workload runs two engines, one per
// tcpnet side, exactly as two processes would, but in this process.
type cluster struct {
	r *rt.Real
	// wl is the unwrapped workload: codecs, the session client's
	// procedures and the recovery rebuild all use it.
	wl      workload.Workload
	engines []*core.Engine // engines[0] hosts node 0 and the coordinator
	hostOf  [nodes]int     // node id → index into engines
	nets    []*tcpnet.Network
	door    net.Listener
	client  *client.Client
	logDir  string
	stopped bool
}

// setup builds, loads and starts a cluster, opens the front door on
// doorNode, dials the session client and waits for the first commit. A
// non-nil tracer wraps the cluster's seams.
func setup(sp spec, seed int64, tr *tracer, runDir string) (*cluster, error) {
	c := &cluster{r: rt.NewReal(), wl: sp.newWorkload()}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	var wl workload.Workload = c.wl
	if tr != nil {
		wl = tr.wrapWorkload(c.wl, !sp.tcp)
	}
	cfg := core.Config{
		RT:             c.r,
		Nodes:          nodes,
		WorkersPerNode: workersPerNode,
		Workload:       wl,
		Seed:           seed,
		SnapshotReads:  true,
	}
	if sp.wal {
		c.logDir = filepath.Join(runDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), time.Now().UnixNano()))
		if err := os.MkdirAll(c.logDir, 0o755); err != nil {
			return nil, fmt.Errorf("log dir: %w", err)
		}
		cfg.LogDir = c.logDir
	}
	if tr != nil {
		cfg.Trace = &tr.epochs
	}
	if sp.tcp {
		if err := c.startTCP(cfg, tr); err != nil {
			return nil, err
		}
	} else {
		if tr != nil {
			cfg.Transport = tr.wrapNet("simnet", simnet.New(c.r, simnetDefaults(seed)), nil, nil)
		}
		c.engines = []*core.Engine{core.New(cfg)}
	}

	// The front door decodes the client's requests with its own clocked
	// codec, so request stamps are re-based into the cluster's clock.
	door, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("front door: %w", err)
	}
	c.door = door
	c.engines[c.hostOf[doorNode]].ServeClients(doorNode, door, c.clockedCodec(), 0)

	clientCodec := core.NewWireCodec(c.wl)
	start := time.Now()
	clientCodec.SetClock(func() int64 { return int64(time.Since(start)) })
	c.client, err = client.Dial(client.Config{
		Addr:         door.Addr().String(),
		Codec:        clientCodec,
		ReqTimeout:   reqTimeout,
		DialDeadline: 10 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Minute)
	for c.counter("committed") == 0 {
		if time.Now().After(deadline) {
			return nil, errors.New("no commit within a minute of start")
		}
		time.Sleep(time.Millisecond)
	}
	ok = true
	return c, nil
}

// simnetDefaults mirrors the simulated network core.Config builds when
// no Transport is given, so a traced run can wrap an identical one.
func simnetDefaults(seed int64) simnet.Config {
	return simnet.Config{
		Nodes:     nodes + 1, // + the coordinator's endpoint
		Latency:   50 * time.Microsecond,
		Jitter:    10 * time.Microsecond,
		Bandwidth: 600e6,
		Seed:      seed,
	}
}

func (c *cluster) clockedCodec() *wire.Codec {
	codec := core.NewWireCodec(c.wl)
	codec.SetClock(func() int64 { return int64(c.r.Now()) })
	return codec
}

// startTCP wires two tcpnet sides over loopback: side A hosts node 0 and
// the coordinator's endpoint, side B hosts node 1.
func (c *cluster) startTCP(cfg core.Config, tr *tracer) error {
	var lns [2]net.Listener
	var addrs [2]string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return fmt.Errorf("listen: %w", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	endpoints := []string{addrs[0], addrs[1], addrs[0]}
	sides := [][]int{{0, nodes}, {1}}
	trans := make([]transport.Transport, 2)
	for i, local := range sides {
		codec := c.clockedCodec()
		nw, err := tcpnet.New(c.r, tcpnet.Config{Endpoints: endpoints, Local: local, Codec: codec, Listener: lns[i]})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return fmt.Errorf("tcpnet side %d: %w", i, err)
		}
		c.nets = append(c.nets, nw)
		trans[i] = nw
		if tr != nil {
			trans[i] = tr.wrapNet("tcpnet", nw, codec, local)
		}
	}
	cfgA, cfgB := cfg, cfg
	cfgA.Transport, cfgA.LocalNodes, cfgA.LocalCoordinator = trans[0], []int{0}, true
	cfgB.Transport, cfgB.LocalNodes, cfgB.Trace = trans[1], []int{1}, nil
	engB := core.New(cfgB)
	engA := core.New(cfgA)
	c.engines = []*core.Engine{engA, engB}
	c.hostOf = [nodes]int{0, 1}
	return nil
}

// snapshot sums the registry snapshots of every engine.
func (c *cluster) snapshot() metrics.Snapshot {
	var s metrics.Snapshot
	for _, e := range c.engines {
		s.Merge(e.StatsSnapshot())
	}
	return s
}

// counter returns a registry counter summed over the engines.
func (c *cluster) counter(name string) int64 {
	var n int64
	for _, e := range c.engines {
		n += e.StatsSnapshot().Counters[name]
	}
	return n
}

func (c *cluster) db(node int) *storage.DB { return c.engines[c.hostOf[node]].DB(node) }

// freeze stops workload generation on every engine.
func (c *cluster) freeze() {
	for _, e := range c.engines {
		e.Freeze()
	}
}

// quiesce waits until the commit counter has stood still for a few polls
// (every deferred request the master queued has run), lets ten more
// iterations' fences pass so replication and the recovery logs cover
// every commit, and stops the runtime — also when commits never stop,
// which it reports. Call it after freeze.
func (c *cluster) quiesce(limit time.Duration) error {
	defer c.stopRuntime()
	deadline := time.Now().Add(limit)
	last, still := int64(-1), 0
	for still < 3 {
		if time.Now().After(deadline) {
			return fmt.Errorf("commits still changing %v after the freeze", limit)
		}
		time.Sleep(50 * time.Millisecond)
		n := c.counter("committed")
		if n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	time.Sleep(100 * time.Millisecond)
	return nil
}

// stopRuntime closes the session and the front door, then stops every
// engine process. Cluster state stays readable afterwards.
func (c *cluster) stopRuntime() {
	if c.stopped {
		return
	}
	c.stopped = true
	if c.client != nil {
		c.client.Close()
	}
	if c.door != nil {
		c.door.Close()
		// Let the front door's connection handlers see the closed stream
		// before the runtime they send into goes away.
		time.Sleep(20 * time.Millisecond)
	}
	c.r.Stop()
	for _, nw := range c.nets {
		nw.Close()
	}
}

// close tears the cluster down and removes its recovery logs.
func (c *cluster) close() {
	c.stopRuntime()
	for _, e := range c.engines {
		e.CloseLogs()
	}
	if c.logDir != "" {
		os.RemoveAll(c.logDir)
	}
}

// checksums computes the checksum of every partition each node holds,
// one goroutine per node. The runtime must be stopped.
func (c *cluster) checksums() [nodes][]uint64 {
	var sums [nodes][]uint64
	var wg sync.WaitGroup
	for id := range sums {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			db := c.db(id)
			s := make([]uint64, partitions)
			for p := range s {
				if db.Holds(p) {
					s[p] = db.PartitionChecksum(p)
				}
			}
			sums[id] = s
		}(id)
	}
	wg.Wait()
	return sums
}

// checkReplicas compares every partition's checksum across every node
// holding it — on both tcpnet sides for the tcp workload.
func (c *cluster) checkReplicas(sums [nodes][]uint64) error {
	topo := c.engines[0].Topology()
	for p := 0; p < partitions; p++ {
		baseNode := -1
		for _, h := range topo.HoldersOf(p) {
			if baseNode < 0 {
				baseNode = h
				continue
			}
			if sums[h][p] != sums[baseNode][p] {
				return fmt.Errorf("partition %d: node %d checksum %x != node %d checksum %x",
					p, h, sums[h][p], baseNode, sums[baseNode][p])
			}
		}
	}
	return nil
}

// recoverNode0 rebuilds node 0 (the full replica) from its recovery logs
// alone — the initial load standing in for a checkpoint — and compares
// it with live, node 0's checksums. The runtime must be stopped.
func (c *cluster) recoverNode0(live []uint64) (time.Duration, error) {
	e := c.engines[0]
	if err := e.CloseLogs(); err != nil {
		return 0, fmt.Errorf("close logs: %w", err)
	}
	logs := e.LogFiles(0)
	if len(logs) == 0 {
		return 0, errors.New("node 0 wrote no recovery logs")
	}
	start := time.Now()
	db := c.wl.BuildDB(partitions, nil)
	c.wl.Load(db)
	if _, _, err := wal.Recover(db, "", logs); err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	took := time.Since(start)
	for p := 0; p < partitions; p++ {
		if got, want := db.PartitionChecksum(p), live[p]; got != want {
			return took, fmt.Errorf("partition %d: recovered %x != live %x", p, got, want)
		}
	}
	return took, nil
}

// quiesceLimit bounds how long the gate waits for commits to stop after
// the freeze.
const quiesceLimit = 30 * time.Second
