package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"star/internal/storage"
	"star/internal/workload/ycsb"
)

// tiny shrinks a workload so that one run takes well under a second.
func tiny(t *testing.T, name string) spec {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.trials = 1
	sp.warmup = 50 * time.Millisecond
	sp.window = 150 * time.Millisecond
	if sp.tpcc != nil {
		sp.tpcc = tpccConfig(2, 30, 200)
	} else {
		sp.ycsbRows = 500
	}
	return sp
}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs every workload tiny, untraced and traced, and checks
// that the gate passes and that the result carries exactly the metrics
// BENCHMARK.json declares, each with its declared unit.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := strings.Join(declared, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			start := time.Now()
			var out bytes.Buffer
			res, err := runBench(tiny(t, name), 7, traced, t.TempDir(), &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, out.String())
			}
			t.Logf("%s traced=%v: %v", name, traced, time.Since(start).Round(time.Millisecond))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: gate failed (attempted %d, failed %d): %v",
					name, traced, res.Attempted, res.Failed, res.violations)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s in %q, declared %q", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			var printed bytes.Buffer
			if err := printResult(&printed, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(printed.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Errorf("%s traced=%v: last line is not the JSON result: %v", name, traced, err)
			}
		}
	}
}

// TestBypassPredictions checks the layers ycsb-local must not touch:
// the OCC abort ratio, the wire codec, tcpnet and the recovery log.
func TestBypassPredictions(t *testing.T) {
	sp := tiny(t, "ycsb-local")
	sp.trials = 2 // also exercises the median over trials
	res, err := runBench(sp, 3, true, t.TempDir(), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range res.Metrics {
		zero := name == "occ.abort_ratio" || strings.HasPrefix(name, "wire.") ||
			strings.HasPrefix(name, "tcpnet.") || strings.HasPrefix(name, "wal.")
		if zero && m.Value != 0 {
			t.Errorf("ycsb-local: %s = %v, want 0", name, m.Value)
		}
	}
	if res.Metrics["txn.run_ns"].Value == 0 || res.Metrics["simnet.send_ns"].Value == 0 {
		t.Error("ycsb-local traced run did not wrap procedures and transport")
	}
}

// TestGateCatchesDivergedReplica changes one row on one replica after
// the freeze and expects the replica check to fail, on one engine
// (simnet) and across two tcpnet sides.
func TestGateCatchesDivergedReplica(t *testing.T) {
	for _, name := range []string{"ycsb-local", "ycsb-cross-tcp"} {
		sp := tiny(t, name)
		c, err := setup(sp, 5, nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Millisecond)
		c.freeze()
		if err := c.quiesce(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.checkReplicas(c.checksums()); err != nil {
			t.Fatalf("%s: replicas differ before the change: %v", name, err)
		}

		w := c.wl.(*ycsb.Workload)
		rec := c.db(1).Table(ycsb.TableID).Get(0, w.Key(0, 0))
		tid := rec.TID()
		rec.Lock()
		row := append([]byte(nil), rec.ValueLocked()...)
		row[0] ^= 0xff
		rec.WriteLocked(storage.TIDEpoch(tid), tid, row)
		rec.Unlock()

		if err := c.checkReplicas(c.checksums()); err == nil {
			t.Errorf("%s: gate passed with one replica's row changed", name)
		}
		c.close()
	}
}
