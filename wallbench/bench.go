package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"star/internal/metrics"
)

// runBench runs sp.trials independent trials, each on a freshly built
// cluster, and reports every metric as its median over the trials. The
// session client's quantiles are the exception: they are taken over the
// requests of all trials pooled, so the tail has enough samples. It
// returns an error only when a run could not be made at all; a failed
// gate is reported in the result.
func runBench(sp spec, seed int64, traced bool, runDir string, out io.Writer) (result, error) {
	fmt.Fprintf(out, "wallbench: workload=%s seed=%d trials=%d window=%v warmup=%v trace=%v shape=%dx%d client=%d/s\n",
		sp.name, seed, sp.trials, sp.window, sp.warmup, traced, nodes, workersPerNode, clientRate)
	fmt.Fprintln(out, "host:", hostFingerprint())
	if sp.wal {
		fmt.Fprintln(out, "flush policy: recovery logs are written at every epoch fence with write() and no fsync (as shipped)")
	}
	res := result{Metrics: map[string]metric{}}
	var trials []trialResult
	var pooled sessionStats
	for i := 0; i < sp.trials; i++ {
		if i > 0 {
			// Hand the previous cluster's memory back before the next
			// one is built, so trials do not stack up.
			runtime.GC()
			debug.FreeOSMemory()
		}
		t, err := runTrial(sp, seed, traced, runDir)
		if err != nil {
			return result{}, fmt.Errorf("trial %d: %w", i+1, err)
		}
		fmt.Fprintf(out, "trial %d: %s\n", i+1, t.summary)
		trials = append(trials, t)
		pooled.add(t.session)
		for _, v := range t.violations {
			res.violations = append(res.violations, fmt.Sprintf("trial %d: %s", i+1, v))
		}
	}
	for name, m := range trials[0].metrics {
		vals := make([]float64, len(trials))
		for i, t := range trials {
			vals[i] = t.metrics[name].Value
		}
		res.Metrics[name] = metric{quantile(vals, 0.5), m.Unit}
	}
	for name, v := range pooled.metrics(traced) {
		res.Metrics[name] = v
	}
	res.Attempted, res.Failed = pooled.attempted, pooled.failed
	res.Correct = len(res.violations) == 0
	if res.Attempted == 0 {
		res.Attempted = 1 // the result must show at least one attempt; an empty session fails the gate
		res.Correct = false
		res.violations = append(res.violations, "the session sent nothing in the window")
	}
	return res, nil
}

// trialResult is one trial's metrics, its session's requests and what
// its correctness gate found.
type trialResult struct {
	metrics    map[string]metric
	session    sessionStats
	violations []string
	summary    string
}

// runTrial builds a cluster (timed: the trial's set-up), starts the
// session client, warms up, measures the window, then runs the
// correctness gate: freeze, let the cluster settle, compare replicas and,
// with recovery logs, node 0 rebuilt from disk.
func runTrial(sp spec, seed int64, traced bool, runDir string) (trialResult, error) {
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	start := time.Now()
	c, err := setup(sp, seed, tr, runDir)
	if err != nil {
		return trialResult{}, err
	}
	setupS := time.Since(start).Seconds()
	defer c.close()

	sess := newSession(c.client, sp.sessionGen(c.wl, seed))
	sess.start()
	time.Sleep(sp.warmup)
	from := takeSample(c, tr)
	smp := startSampler(c, tr)
	time.Sleep(sp.window)
	to := takeSample(c, tr)
	obs := smp.finish()
	st := summarise(sess.finish(), from.at, to.at)

	violations := st.violations
	if st.failed > 0 {
		violations = append(violations, fmt.Sprintf("%d of %d session requests failed", st.failed, st.attempted))
	}
	if to.counter("committed") <= from.counter("committed") {
		violations = append(violations, "nothing committed in the window")
	}
	c.freeze()
	var recoverS float64
	if err := c.quiesce(quiesceLimit); err != nil {
		violations = append(violations, err.Error())
	} else {
		sums := c.checksums()
		if err := c.checkReplicas(sums); err != nil {
			violations = append(violations, err.Error())
		}
		if sp.wal {
			took, err := c.recoverNode0(sums[0])
			if err != nil {
				violations = append(violations, "recovery: "+err.Error())
			}
			recoverS = took.Seconds()
		}
	}

	t := trialResult{session: st, violations: violations}
	if traced {
		t.metrics = perLayer(tr, from, to, obs, recoverS, heapBytesPerUserByte(c))
	} else {
		t.metrics = endToEnd(from, to, obs, setupS)
	}
	t.summary = fmt.Sprintf("setup %.3fs, %.0f txn/s, commits per second %s; client writes %d p50 %.1fms p99 %.1fms; %s",
		setupS, (to.counter("committed")-from.counter("committed"))/to.at.Sub(from.at).Seconds(),
		joinInts(obs.perSecond), len(st.writeLatency), quantile(st.writeLatency, 0.5), quantile(st.writeLatency, 0.99),
		mixLine(from, to))
	return t, nil
}

// ---- samples ----

// sample is the cumulative state read at one end of the window.
type sample struct {
	at    time.Time
	rtNow time.Duration // the cluster runtime's clock (epoch trace origin)
	snap  metrics.Snapshot
	tr    map[string]float64 // tracer counters; nil untraced
	rtm   runtimeSample
}

func takeSample(c *cluster, tr *tracer) sample {
	s := sample{at: time.Now(), rtNow: c.r.Now(), snap: c.snapshot(), rtm: readRuntime()}
	if tr != nil {
		s.tr = tr.counters()
	}
	return s
}

func (s sample) counter(name string) float64 { return float64(s.snap.Counters[name]) }
func (s sample) gauge(name string) float64   { return float64(s.snap.Gauges[name]) }

// histDelta restricts a registry histogram to the window by subtracting
// cumulative bucket counts, as star-admin top does.
func histDelta(from, to sample, name string) metrics.HistSnapshot {
	a, b := from.snap.Hists[name], to.snap.Hists[name]
	d := metrics.HistSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for k, n := range b.Buckets {
		if n -= a.Buckets[k]; n > 0 {
			if d.Buckets == nil {
				d.Buckets = map[int]int64{}
			}
			d.Buckets[k] = n
		}
	}
	return d
}

// observed is what the sampler saw during the window.
type observed struct {
	perSecond  []int64 // commits in each whole second
	rssPeakMB  float64
	replLagMax float64
	// inboxDepth is the mean summed inbox depth per transport kind.
	inboxDepth map[string]float64
}

// sampler polls the process and the cluster during the window: resident
// memory every 20ms, commit counts every second and, on a traced run,
// replication lag and inbox depths.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	obs  observed
}

func startSampler(c *cluster, tr *tracer) *sampler {
	s := &sampler{stop: make(chan struct{}), obs: observed{inboxDepth: map[string]float64{}}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		const tick = 20 * time.Millisecond
		t := time.NewTicker(tick)
		defer t.Stop()
		lastCommit, lastSecond := c.counter("committed"), time.Now()
		depthSum, depthN := map[string]float64{}, 0
		for {
			select {
			case <-s.stop:
				for k, v := range depthSum {
					s.obs.inboxDepth[k] = v / float64(depthN)
				}
				return
			case now := <-t.C:
				if mb := rssMB(); mb > s.obs.rssPeakMB {
					s.obs.rssPeakMB = mb
				}
				if now.Sub(lastSecond) >= time.Second {
					n := c.counter("committed")
					s.obs.perSecond = append(s.obs.perSecond, n-lastCommit)
					lastCommit, lastSecond = n, lastSecond.Add(time.Second)
				}
				if tr == nil {
					continue
				}
				for name, v := range c.snapshot().Gauges {
					if strings.HasPrefix(name, "repl_lag") && float64(v) > s.obs.replLagMax {
						s.obs.replLagMax = float64(v)
					}
				}
				for _, n := range tr.netsSnapshot() {
					depthSum[n.kind] += float64(n.inboxDepth())
				}
				depthN++
			}
		}
	}()
	return s
}

func (s *sampler) finish() observed {
	close(s.stop)
	s.wg.Wait()
	return s.obs
}

// rssMB reads the process's resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / 1e6
}

// ---- end-to-end metrics ----

// endToEnd computes one trial's engine-side metrics; the session
// client's come from sessionStats.metrics over every trial.
func endToEnd(from, to sample, obs observed, setupS float64) map[string]metric {
	secs := to.at.Sub(from.at).Seconds()
	lat := histDelta(from, to, "latency")
	return map[string]metric{
		"throughput_txn_s": {(to.counter("committed") - from.counter("committed")) / secs, "txn/s"},
		"commit_p50_ms":    {histQuantile(lat, 0.50) / 1e6, "ms"},
		"commit_p99_ms":    {histQuantile(lat, 0.99) / 1e6, "ms"},
		"rss_peak_mb":      {obs.rssPeakMB, "MB"},
		"setup_s":          {setupS, "s"},
	}
}

// mixLine describes the transaction mix the window ran; traced and
// untraced runs of one workload must agree on it.
func mixLine(from, to sample) string {
	d := func(n string) float64 { return to.counter(n) - from.counter(n) }
	committed := d("committed")
	if committed <= 0 {
		return "nothing committed"
	}
	return fmt.Sprintf("single_master_share=%.4f deferred_per_commit=%.4f snapshot_reads_per_commit=%.4f abort_ratio=%.5f",
		d("committed_single_master")/committed, d("deferred")/committed, d("snapshot_reads")/committed,
		d("aborted")/(committed+d("aborted")))
}

// ---- quantiles ----

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// histQuantile returns the q-quantile of a histogram snapshot in
// nanoseconds, interpolating linearly inside the bucket that holds it,
// so a window's quantile is not rounded to a bucket edge.
func histQuantile(h metrics.HistSnapshot, q float64) float64 {
	var total int64
	idx := make([]int, 0, len(h.Buckets))
	for b, n := range h.Buckets {
		total += n
		idx = append(idx, b)
	}
	if total == 0 {
		return 0
	}
	sort.Ints(idx)
	rank := q * float64(total)
	var seen float64
	for _, b := range idx {
		n := float64(h.Buckets[b])
		if seen+n >= rank {
			lo, hi := bucketBounds(b)
			return lo + (rank-seen)/n*(hi-lo)
		}
		seen += n
	}
	_, hi := bucketBounds(idx[len(idx)-1])
	return hi
}

// bucketBounds returns the nanosecond range of a metrics.Hist bucket.
// The histogram reports a bucket's upper bound as the quantile of a
// snapshot holding only that bucket, which keeps the bucket layout the
// metrics package's own.
func bucketBounds(b int) (lo, hi float64) {
	upper := func(b int) float64 {
		one := metrics.HistSnapshot{Count: 1, Max: 1 << 62, Buckets: map[int]int64{b: 1}}
		return float64(one.Quantile(0.5))
	}
	hi = upper(b)
	if b > 0 {
		lo = upper(b - 1)
	}
	return lo, hi
}

// ---- host ----

// hostFingerprint names the hardware and software the numbers were
// measured on.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s kernel=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel)
}

func joinInts(xs []int64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatInt(x, 10)
	}
	return strings.Join(s, " ")
}
