package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"star/internal/core"
	"star/internal/storage"
	"star/internal/transport"
)

// counters flattens the tracer's cumulative counters.
func (t *tracer) counters() map[string]float64 {
	m := map[string]float64{
		"gen.calls":   float64(t.genCalls.Load()),
		"gen.timed":   float64(t.genTimed.Load()),
		"gen.ns":      float64(t.genNs.Load()),
		"run.calls":   float64(t.runCalls.Load()),
		"run.ok":      float64(t.runOK.Load()),
		"run.timed":   float64(t.runTimed.Load()),
		"run.ns":      float64(t.runNs.Load()),
		"reads":       float64(t.reads.Load()),
		"reads.timed": float64(t.readsTimed.Load()),
		"read.ns":     float64(t.readNs.Load()),
		"writes":      float64(t.writes.Load()),
		"inserts":     float64(t.inserts.Load()),
		"lookups":     float64(t.lookups.Load()),
		"user.bytes":  float64(t.userBytes.Load()),
		"wire.n":      float64(t.wireN.Load()),
		"wire.enc.ns": float64(t.wireEncNs.Load()),
		"wire.dec.ns": float64(t.wireDecNs.Load()),
		"wire.bytes":  float64(t.wireBytes.Load()),
	}
	for _, n := range t.netsSnapshot() {
		for c := transport.Class(0); c < transport.NumClasses; c++ {
			m[n.kind+".sends."+className(c)] += float64(n.sends[c].Load())
			m[n.kind+".bytes"] += float64(n.Bytes(c))
		}
		m[n.kind+".send.ns"] += float64(n.sendNs.Load())
		for _, ch := range n.inboxes {
			if ch != nil {
				m[n.kind+".recv"] += float64(ch.recv.Load())
			}
		}
	}
	return m
}

func (t *tracer) netsSnapshot() []*tracedNet {
	t.netsMu.Lock()
	defer t.netsMu.Unlock()
	return append([]*tracedNet(nil), t.nets...)
}

func className(c transport.Class) string {
	switch c {
	case transport.Control:
		return "control"
	case transport.Data:
		return "data"
	default:
		return "replication"
	}
}

// perLayer computes one traced trial's per-layer metrics. Per-txn
// figures divide by commits, except the Ctx counts, which divide by
// successful procedure runs. A seam a workload does not have reports 0
// (procedures are not wrapped where they cross the wire, simnet has no
// codec, only tpcc-wal logs).
func perLayer(tr *tracer, from, to sample, obs observed, recoverS, heapPerUserByte float64) map[string]metric {
	secs := to.at.Sub(from.at).Seconds()
	d := func(n string) float64 { return to.tr[n] - from.tr[n] }
	dc := func(n string) float64 { return to.counter(n) - from.counter(n) }
	dg := func(n string) float64 { return to.gauge(n) - from.gauge(n) }
	per := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	committed := dc("committed")
	ok := d("run.ok")
	m := map[string]metric{
		"trace.throughput_txn_s": {committed / secs, "txn/s"},

		"workload.gen_ns":    {per(d("gen.ns"), d("gen.timed")), "ns"},
		"workload.gen_per_s": {d("gen.calls") / secs, "1/s"},

		"txn.run_ns":              {per(d("run.ns"), d("run.timed")), "ns"},
		"txn.attempts_per_commit": {per(d("run.calls"), ok), "ratio"},

		"storage.read_ns":                  {per(d("read.ns"), d("reads.timed")), "ns"},
		"storage.reads_per_txn":            {per(d("reads"), ok), "1/txn"},
		"storage.writes_per_txn":           {per(d("writes"), ok), "1/txn"},
		"storage.inserts_per_txn":          {per(d("inserts"), ok), "1/txn"},
		"storage.index_lookups_per_txn":    {per(d("lookups"), ok), "1/txn"},
		"storage.load_s":                   {float64(tr.loadNs.Load()) / 1e9, "s"},
		"storage.heap_bytes_per_user_byte": {heapPerUserByte, "B/B"},

		"occ.abort_ratio":         {per(dc("aborted"), committed+dc("aborted")), "ratio"},
		"occ.single_master_share": {per(dc("committed_single_master"), committed), "ratio"},

		"mix.deferred_per_commit":       {per(dc("deferred"), committed), "ratio"},
		"mix.snapshot_reads_per_commit": {per(dc("snapshot_reads"), committed), "ratio"},

		"core.drain_stall_p99_us": {histQuantile(histDelta(from, to, "drain_stall"), 0.99) / 1e3, "us"},
		"core.frontdoor_shed":     {dc("shed_frontdoor"), "count"},

		"replication.bytes_per_txn": {per(dg("repl_bytes"), committed), "B/txn"},
		"replication.msgs_per_txn":  {per(dg("repl_msgs"), committed), "1/txn"},
		"replication.lag_max":       {obs.replLagMax, "entries"},

		"wire.encode_ns":   {per(d("wire.enc.ns"), d("wire.n")), "ns"},
		"wire.decode_ns":   {per(d("wire.dec.ns"), d("wire.n")), "ns"},
		"wire.frame_bytes": {per(d("wire.bytes"), d("wire.n")), "B"},

		"wal.bytes_per_txn":       {per(dg("log_bytes"), committed), "B/txn"},
		"wal.bytes_per_user_byte": {per(dg("log_bytes"), d("user.bytes")), "B/B"},
		"wal.recover_s":           {recoverS, "s"},
	}
	for k, v := range epochMetrics(tr.epochs.bytes(), from.rtNow, to.rtNow) {
		m[k] = v
	}
	for _, kind := range []string{"simnet", "tcpnet"} {
		sends := 0.0
		for c := transport.Class(0); c < transport.NumClasses; c++ {
			n := d(kind + ".sends." + className(c))
			m[kind+".msgs_per_txn."+className(c)] = metric{per(n, committed), "1/txn"}
			sends += n
		}
		m[kind+".bytes_per_txn"] = metric{per(d(kind+".bytes"), committed), "B/txn"}
		m[kind+".send_ns"] = metric{per(d(kind+".send.ns"), sends), "ns"}
		// Little's law: the mean time a message waits in an inbox is the
		// mean number queued over the rate they are taken out.
		m[kind+".inbox_wait_ns"] = metric{per(obs.inboxDepth[kind], d(kind+".recv")/secs) * 1e9, "ns"}
	}
	for k, v := range runtimeMetrics(from.rtm, to.rtm, committed) {
		m[k] = v
	}
	return m
}

// epochMetrics reads the coordinator's epoch trace for the epochs that
// ended inside the window (runtime clock from..to).
func epochMetrics(trace []byte, from, to time.Duration) map[string]metric {
	var fence, queued, at []float64
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev core.TraceEvent
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		now := time.Duration(ev.NowUS) * time.Microsecond
		if now < from || now >= to {
			continue
		}
		fence = append(fence, float64(ev.FenceUS))
		queued = append(queued, float64(ev.Queued))
		at = append(at, (now - from).Seconds())
	}
	secs := (to - from).Seconds()
	fenceSum := 0.0
	for _, f := range fence {
		fenceSum += f
	}
	return map[string]metric{
		"core.fence_p50_us": {quantile(fence, 0.50), "us"},
		"core.fence_p99_us": {quantile(fence, 0.99), "us"},
		"core.fence_share":  {fenceSum / 1e6 / secs, "ratio"},
		"core.queued_p99":   {quantile(queued, 0.99), "txn"},
		"core.queued_slope": {slope(at, queued), "txn/s"},
		"core.epochs_per_s": {float64(len(fence)) / secs, "1/s"},
	}
}

// slope is the least-squares slope of ys over xs (0 with fewer than two
// points).
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// ---- Go runtime ----

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/sched/latencies:seconds",
}

type runtimeSample struct {
	gcCPU, totalCPU, allocs, live float64
	sched                         *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	s := runtimeSample{gcCPU: num(ss[0].Value), totalCPU: num(ss[1].Value), allocs: num(ss[2].Value), live: num(ss[3].Value)}
	if ss[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := ss[4].Value.Float64Histogram()
		s.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return s
}

func runtimeMetrics(from, to runtimeSample, committed float64) map[string]metric {
	gcFrac, allocPerTxn := 0.0, 0.0
	if cpu := to.totalCPU - from.totalCPU; cpu > 0 {
		gcFrac = (to.gcCPU - from.gcCPU) / cpu
	}
	if committed > 0 {
		allocPerTxn = (to.allocs - from.allocs) / committed
	}
	return map[string]metric{
		"rt.gc_cpu_frac":          {gcFrac, "ratio"},
		"rt.alloc_bytes_per_txn":  {allocPerTxn, "B/txn"},
		"rt.heap_live_mb":         {to.live / 1e6, "MB"},
		"rt.sched_latency_p99_us": {schedP99(from.sched, to.sched) * 1e6, "us"},
	}
}

// schedP99 is the 99th percentile of the goroutine scheduling latencies
// recorded between the two histograms, at the upper edge of its bucket.
func schedP99(from, to *metrics.Float64Histogram) float64 {
	if from == nil || to == nil || len(from.Counts) != len(to.Counts) {
		return 0
	}
	var total uint64
	d := make([]uint64, len(to.Counts))
	for i := range d {
		d[i] = to.Counts[i] - from.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, n := range d {
		seen += n
		if seen >= rank {
			hi := to.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = to.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// heapBytesPerUserByte forces a collection and divides the live heap by
// the bytes of rows and keys every node's database holds. Call it once
// the runtime has stopped, so nothing changes under the scan.
func heapBytesPerUserByte(c *cluster) float64 {
	var user float64
	for id := 0; id < nodes; id++ {
		db := c.db(id)
		for t := 0; t < db.NumTables(); t++ {
			tbl := db.Table(storage.TableID(t))
			for p := 0; p < tbl.NumPartitions(); p++ {
				if tbl.Replicated() && p > 0 {
					break // one copy per node
				}
				part := tbl.Partition(p)
				if part == nil {
					continue
				}
				part.Range(func(_ storage.Key, _ uint64, val []byte) bool {
					user += float64(len(val) + 16)
					return true
				})
			}
		}
	}
	runtime.GC()
	if user == 0 {
		return 0
	}
	return readRuntime().live / user
}
