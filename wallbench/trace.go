package main

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"star/internal/metrics"
	"star/internal/rt"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire"
	"star/internal/workload"
)

// tracer holds the traced run's wrappers and counters. Every wrapper
// sits on a seam the engine already accepts — the workload and its
// generators, procedures and their Ctx, the transport, the epoch trace —
// so nothing is measured inside the program. Counters are cumulative;
// the run reads them at both ends of the window.
type tracer struct {
	// Generator calls, and the time of the sampled ones.
	genCalls, genTimed, genNs metrics.Counter

	// Procedure runs, and the time of the sampled ones.
	runCalls, runOK, runTimed, runNs metrics.Counter
	// Ctx counts, flushed per successful Run; reads are timed in another
	// sample of procedures than the Runs.
	reads, readsTimed, readNs           metrics.Counter
	writes, inserts, lookups, userBytes metrics.Counter
	loadNs                              atomic.Int64

	netsMu sync.Mutex
	nets   []*tracedNet

	wireN, wireEncNs, wireDecNs, wireBytes metrics.Counter

	epochs epochLog
}

// timeSample sets how much is timed: one generator call in this many,
// with the Run of the procedure it produces, and the reads of another
// procedure in this many (kept apart, so the reads' clock reads do not
// land inside a timed Run). A clock read costs ~70 ns on a 2-vCPU Xeon
// VM; timing every call slowed a traced ycsb-local run by ~17%.
const timeSample = 16

// timing says what of one wrapped procedure is timed.
type timing uint8

const (
	timeNone  timing = iota
	timeRun          // its generation and its Run
	timeReads        // its reads
)

// wireSample re-runs one remote message in this many through the codec.
const wireSample = 64

// ---- workload and generators ----

// tracedWorkload wraps a workload: Load is timed, generators are wrapped.
// Procedures are wrapped only when wrapProcs is set — never where they
// cross the wire codec, which encodes by concrete type. Codecs are built
// from the unwrapped workload, so the wrapper need not forward
// RegisterWire.
type tracedWorkload struct {
	workload.Workload
	t         *tracer
	wrapProcs bool
}

func (t *tracer) wrapWorkload(w workload.Workload, wrapProcs bool) workload.Workload {
	return &tracedWorkload{Workload: w, t: t, wrapProcs: wrapProcs}
}

func (w *tracedWorkload) Load(db *storage.DB) {
	start := time.Now()
	w.Workload.Load(db)
	w.t.loadNs.Add(int64(time.Since(start)))
}

func (w *tracedWorkload) NewGen(seed int64) workload.Gen {
	return &tracedGen{g: w.Workload.NewGen(seed), t: w.t, wrapProcs: w.wrapProcs}
}

// tracedGen wraps one worker's generator; the engine calls it from that
// worker's goroutine only.
type tracedGen struct {
	g         workload.Gen
	t         *tracer
	wrapProcs bool
	n         int
}

func (g *tracedGen) Mixed(home int) txn.Procedure  { return g.call(g.g.Mixed, home) }
func (g *tracedGen) Single(home int) txn.Procedure { return g.call(g.g.Single, home) }
func (g *tracedGen) Cross(home int) txn.Procedure  { return g.call(g.g.Cross, home) }

func (g *tracedGen) call(gen func(int) txn.Procedure, home int) txn.Procedure {
	g.t.genCalls.Inc()
	g.n++
	tm := timeNone
	switch g.n % timeSample {
	case 0:
		tm = timeRun
	case timeSample / 2:
		tm = timeReads
	}
	var p txn.Procedure
	if tm == timeRun {
		start := time.Now()
		p = gen(home)
		g.t.genNs.Add(int64(time.Since(start)))
		g.t.genTimed.Inc()
	} else {
		p = gen(home)
	}
	if !g.wrapProcs {
		return p
	}
	return g.t.wrapProc(p, tm)
}

// ---- procedures and Ctx ----

// tracedProc wraps a procedure: its Run is counted (and timed when
// sampled) and its Ctx counted. It forwards the optional markers the
// engine asserts (read-only and deferred); sizedProc adds the wire-size
// method when the procedure has one. One procedure runs on one goroutine
// at a time, so the Ctx wrapper lives inside it and costs no allocation
// of its own.
type tracedProc struct {
	p    txn.Procedure
	tm   timing
	ctx  tracedCtx
	tail tracedTailCtx
}

type sizedProc struct{ tracedProc }

func (p *sizedProc) WireSize() int { return p.p.(interface{ WireSize() int }).WireSize() }

func (t *tracer) wrapProc(p txn.Procedure, tm timing) txn.Procedure {
	if _, ok := p.(interface{ WireSize() int }); ok {
		sp := &sizedProc{tracedProc{p: p, tm: tm}}
		sp.ctx.t = t
		return sp
	}
	tp := &tracedProc{p: p, tm: tm}
	tp.ctx.t = t
	return tp
}

func (p *tracedProc) Name() string           { return p.p.Name() }
func (p *tracedProc) Accesses() []txn.Access { return p.p.Accesses() }
func (p *tracedProc) ReadOnly() bool         { return txn.IsReadOnly(p.p) }
func (p *tracedProc) Deferred() bool         { return txn.IsDeferred(p.p) }

func (p *tracedProc) Run(ctx txn.Ctx) error {
	c := &p.ctx
	c.reset(ctx, p.tm == timeReads)
	// Forward the bounded index-tail lookup only when the engine's Ctx
	// has it, so the procedure takes the same path it would unwrapped.
	var wrapped txn.Ctx = c
	if _, ok := ctx.(txn.IndexTailReader); ok {
		p.tail.tracedCtx = c
		wrapped = &p.tail
	}
	t := c.t
	t.runCalls.Inc()
	var err error
	if p.tm == timeRun {
		start := time.Now()
		err = p.p.Run(wrapped)
		t.runNs.Add(int64(time.Since(start)))
		t.runTimed.Inc()
	} else {
		err = p.p.Run(wrapped)
	}
	if err == nil {
		c.flush()
	}
	return err
}

// tracedCtx counts one Run's data accesses, and times its reads when
// timed is set; the counts reach the shared counters only if the Run
// succeeds.
type tracedCtx struct {
	inner                          txn.Ctx
	t                              *tracer
	timed                          bool
	reads, readNs                  int64
	writes, inserts, lookups, user int64
}

func (c *tracedCtx) reset(inner txn.Ctx, timed bool) {
	*c = tracedCtx{inner: inner, t: c.t, timed: timed}
}

type tracedTailCtx struct{ *tracedCtx }

func (c *tracedTailCtx) LookupIndexTail(t storage.TableID, part, idx int, val []byte, max int, dst []storage.Key) []storage.Key {
	c.lookups++
	return c.inner.(txn.IndexTailReader).LookupIndexTail(t, part, idx, val, max, dst)
}

func (c *tracedCtx) Read(t storage.TableID, part int, key storage.Key) ([]byte, bool) {
	c.reads++
	if !c.timed {
		return c.inner.Read(t, part, key)
	}
	start := time.Now()
	row, ok := c.inner.Read(t, part, key)
	c.readNs += int64(time.Since(start))
	return row, ok
}

func (c *tracedCtx) Write(t storage.TableID, part int, key storage.Key, ops ...storage.FieldOp) {
	c.writes++
	for i := range ops {
		c.user += int64(len(ops[i].Arg))
	}
	c.inner.Write(t, part, key, ops...)
}

func (c *tracedCtx) Insert(t storage.TableID, part int, key storage.Key, row []byte) {
	c.inserts++
	c.user += int64(len(row))
	c.inner.Insert(t, part, key, row)
}

func (c *tracedCtx) Delete(t storage.TableID, part int, key storage.Key) {
	c.inner.Delete(t, part, key)
}

func (c *tracedCtx) LookupIndex(t storage.TableID, part, idx int, val []byte, dst []storage.Key) []storage.Key {
	c.lookups++
	return c.inner.LookupIndex(t, part, idx, val, dst)
}

func (c *tracedCtx) flush() {
	t := c.t
	t.runOK.Inc()
	t.reads.Add(c.reads)
	if c.timed {
		t.readsTimed.Add(c.reads)
		t.readNs.Add(c.readNs)
	}
	t.writes.Add(c.writes)
	t.inserts.Add(c.inserts)
	if c.lookups > 0 {
		t.lookups.Add(c.lookups)
	}
	t.userBytes.Add(c.user)
}

// ---- transport ----

// tracedNet wraps a transport: sends are counted per class and timed,
// local inboxes count what they deliver, and on a transport with a codec
// one remote message in wireSample is re-encoded and decoded through it
// to time the wire codec.
type tracedNet struct {
	transport.Transport
	kind    string // "simnet" or "tcpnet"
	t       *tracer
	codec   *wire.Codec // nil: no wire sampling
	local   []bool      // endpoints hosted on this side
	inboxes []*tracedChan

	sends  [transport.NumClasses]metrics.Counter
	sendNs metrics.Counter
	seq    atomic.Int64
}

// wrapNet wraps a transport with endpoints [0, nodes]; local lists the
// endpoints this side hosts (nil: all of them).
func (t *tracer) wrapNet(kind string, inner transport.Transport, codec *wire.Codec, local []int) transport.Transport {
	n := &tracedNet{Transport: inner, kind: kind, t: t, codec: codec,
		local: make([]bool, nodes+1), inboxes: make([]*tracedChan, nodes+1)}
	for id := range n.local {
		n.local[id] = local == nil
	}
	for _, id := range local {
		n.local[id] = true
	}
	for id, hosted := range n.local {
		if hosted {
			n.inboxes[id] = &tracedChan{Chan: inner.Inbox(id)}
		}
	}
	t.netsMu.Lock()
	t.nets = append(t.nets, n)
	t.netsMu.Unlock()
	return n
}

func (n *tracedNet) Inbox(dst int) rt.Chan {
	if c := n.inboxes[dst]; c != nil {
		return c
	}
	return n.Transport.Inbox(dst)
}

func (n *tracedNet) Send(src, dst int, class transport.Class, m transport.Message) {
	if n.codec != nil && !n.local[dst] && n.seq.Add(1)%wireSample == 0 {
		n.sampleWire(src, dst, class, m)
	}
	start := time.Now()
	n.Transport.Send(src, dst, class, m)
	n.sendNs.Add(int64(time.Since(start)))
	n.sends[class].Inc()
}

// sampleWire runs m through the codec the transport itself uses, before
// the send: the sender may reuse m's buffers once Send returns.
func (n *tracedNet) sampleWire(src, dst int, class transport.Class, m transport.Message) {
	start := time.Now()
	frame, err := wire.AppendFrame(nil, src, dst, class, n.codec, m)
	enc := time.Since(start)
	if err != nil {
		return
	}
	start = time.Now()
	_, _, err = wire.DecodeFrameBody(frame[4:], n.codec)
	dec := time.Since(start)
	if err != nil {
		return
	}
	t := n.t
	t.wireN.Inc()
	t.wireEncNs.Add(int64(enc))
	t.wireDecNs.Add(int64(dec))
	t.wireBytes.Add(int64(len(frame)))
}

// inboxDepth sums the queued messages of every local inbox.
func (n *tracedNet) inboxDepth() int64 {
	var d int64
	for _, c := range n.inboxes {
		if c != nil {
			d += int64(c.Len())
		}
	}
	return d
}

// tracedChan counts the messages an inbox hands to its receiver.
type tracedChan struct {
	rt.Chan
	recv metrics.Counter
}

func (c *tracedChan) Recv() any {
	v := c.Chan.Recv()
	c.recv.Inc()
	return v
}

func (c *tracedChan) TryRecv() (any, bool) {
	v, ok := c.Chan.TryRecv()
	if ok {
		c.recv.Inc()
	}
	return v, ok
}

func (c *tracedChan) RecvTimeout(d time.Duration) (any, bool) {
	v, ok := c.Chan.RecvTimeout(d)
	if ok {
		c.recv.Inc()
	}
	return v, ok
}

// ---- epoch trace ----

// epochLog is the core.Config.Trace sink: the coordinator writes one
// JSON line per committed epoch.
type epochLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *epochLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *epochLog) bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.buf.Bytes()...)
}
