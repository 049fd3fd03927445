package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"star/internal/client"
	"star/internal/txn"
)

const (
	// reqTimeout bounds one session request; a request that times out
	// counts as failed, with this as its latency.
	reqTimeout = 5 * time.Second
	// busyRetries is how often a shed (ErrBusy) request is retried before
	// it counts as failed.
	busyRetries = 8
)

// opResult is one session request's outcome. Latency runs from the time
// the request was due to be sent, so a stall also charges the requests
// queued behind it.
type opResult struct {
	due     time.Time
	latency time.Duration // due → response
	service time.Duration // Do call → response
	late    time.Duration // due → Do call
	token   uint64
	err     error
}

// pair is one write and the read that follows it.
type pair struct {
	op          sessionOp
	write, read opResult
}

// session is the open-loop session client: one connection, a fixed
// request rate, writes and reads alternating. Write k is due at 2k
// periods after the start, its read one period later; the read is sent
// only once the write has answered, so it carries the write's token.
// Pairs overlap when a write takes longer than two periods.
type session struct {
	c    *client.Client
	next func() sessionOp

	period time.Duration
	stop   chan struct{}
	sender sync.WaitGroup
	pairs  sync.WaitGroup

	mu   sync.Mutex
	done []pair
}

func newSession(c *client.Client, next func() sessionOp) *session {
	return &session{
		c:      c,
		next:   next,
		period: time.Second / clientRate,
		stop:   make(chan struct{}),
	}
}

// start begins sending; finish stops it.
func (s *session) start() {
	s.sender.Add(1)
	go func() {
		defer s.sender.Done()
		t0 := time.Now()
		for k := 0; ; k++ {
			due := t0.Add(time.Duration(2*k) * s.period)
			t := time.NewTimer(time.Until(due))
			select {
			case <-s.stop:
				t.Stop()
				return
			case <-t.C:
			}
			op := s.next()
			s.pairs.Add(1)
			go s.runPair(op, due)
		}
	}()
}

func (s *session) runPair(op sessionOp, due time.Time) {
	defer s.pairs.Done()
	p := pair{op: op}
	p.write = s.send(op.write, due)
	rdue := due.Add(s.period)
	if d := time.Until(rdue); d > 0 {
		time.Sleep(d)
	}
	p.read = s.send(op.read, rdue)
	s.mu.Lock()
	s.done = append(s.done, p)
	s.mu.Unlock()
}

func (s *session) send(p txn.Procedure, due time.Time) opResult {
	sent := time.Now()
	res, err := s.c.DoRetry(p, busyRetries)
	end := time.Now()
	return opResult{due: due, latency: end.Sub(due), service: end.Sub(sent), late: sent.Sub(due), token: res.Token, err: err}
}

// finish stops sending and waits for every pair in flight to answer
// (each request is bounded by reqTimeout).
func (s *session) finish() []pair {
	close(s.stop)
	s.sender.Wait()
	s.pairs.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// sessionStats summarises the pairs whose write fell due inside the
// measured window.
type sessionStats struct {
	attempted, failed int
	writeLatency      []float64 // ms; a failed write counts as reqTimeout
	readService       []float64 // µs, served reads only
	lateUS            []float64 // how late the sender sent each write, µs
	violations        []string
}

func summarise(pairs []pair, from, to time.Time) sessionStats {
	var st sessionStats
	for _, p := range pairs {
		if p.write.due.Before(from) || !p.write.due.Before(to) {
			continue
		}
		st.attempted += 2
		wOK := p.write.err == nil
		switch {
		case p.op.mustAbort && errors.Is(p.write.err, client.ErrAborted):
			// The generator built this write to roll back; it did.
		case p.op.mustAbort && wOK:
			st.violations = append(st.violations, fmt.Sprintf("%s built to roll back committed", p.op.write.Name()))
		case !wOK:
			st.failed++
		}
		lat := p.write.latency
		if !wOK && !p.op.mustAbort {
			lat = reqTimeout
		}
		st.writeLatency = append(st.writeLatency, ms(lat))
		if p.read.err != nil {
			st.failed++
		} else {
			st.readService = append(st.readService, us(p.read.service))
			if wOK && p.read.token < p.write.token {
				st.violations = append(st.violations,
					fmt.Sprintf("read token %d went back before its write's token %d", p.read.token, p.write.token))
			}
		}
		st.lateUS = append(st.lateUS, us(p.write.late))
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// add pools another trial's requests into st.
func (st *sessionStats) add(o sessionStats) {
	st.attempted += o.attempted
	st.failed += o.failed
	st.writeLatency = append(st.writeLatency, o.writeLatency...)
	st.readService = append(st.readService, o.readService...)
	st.lateUS = append(st.lateUS, o.lateUS...)
}

// metrics returns the session client's metrics over the pooled
// requests: write latency and the success ratio end to end, front-door
// read latency and sender lateness per layer.
func (st *sessionStats) metrics(traced bool) map[string]metric {
	if traced {
		return map[string]metric{
			"core.frontdoor_read_p99_us": {quantile(st.readService, 0.99), "us"},
			"client.send_late_p99_us":    {quantile(st.lateUS, 0.99), "us"},
		}
	}
	okRatio := 0.0
	if st.attempted > 0 {
		okRatio = 1 - float64(st.failed)/float64(st.attempted)
	}
	return map[string]metric{
		"client_p50_ms":   {quantile(st.writeLatency, 0.50), "ms"},
		"client_p99_ms":   {quantile(st.writeLatency, 0.99), "ms"},
		"client_ok_ratio": {okRatio, "ratio"},
	}
}
