package ycsb

import (
	"math/rand"
	"reflect"
	"testing"

	"star/internal/storage"
	"star/internal/txn"
)

func small() *Workload {
	return New(Config{Partitions: 4, RecordsPerPartition: 64, CrossPct: 50})
}

func TestLoadIsDeterministicAcrossReplicas(t *testing.T) {
	w := small()
	full := w.BuildDB(4, nil)
	w.Load(full)
	partial := w.BuildDB(4, []bool{false, true, false, true})
	w.Load(partial)
	for _, p := range []int{1, 3} {
		if full.PartitionChecksum(p) != partial.PartitionChecksum(p) {
			t.Fatalf("partition %d differs between replicas", p)
		}
	}
	if n := full.Table(TableID).Partition(0).Len(); n != 64 {
		t.Fatalf("partition 0 has %d records", n)
	}
}

func TestKeysArePartitionLocal(t *testing.T) {
	w := small()
	if w.Key(1, 0) != storage.K1(64) || w.Key(0, 63) != storage.K1(63) {
		t.Fatal("key layout broken")
	}
}

func TestSingleTxnFootprint(t *testing.T) {
	w := small()
	g := w.NewGen(1)
	for i := 0; i < 50; i++ {
		p := g.Single(2)
		req := txn.NewRequest(p, 0)
		if req.Cross || req.Home != 2 {
			t.Fatalf("single txn crossed partitions: %+v", req.Parts)
		}
		accs := p.Accesses()
		if len(accs) != 10 {
			t.Fatalf("accesses=%d", len(accs))
		}
		writes := 0
		for _, a := range accs {
			if a.Write {
				writes++
			}
		}
		if writes != 1 {
			t.Fatalf("writes=%d, want 1 (90/10 mix)", writes)
		}
	}
}

func TestCrossTxnReallyCrosses(t *testing.T) {
	w := small()
	g := w.NewGen(2)
	for i := 0; i < 50; i++ {
		req := txn.NewRequest(g.Cross(1), 0)
		if !req.Cross {
			t.Fatal("cross txn touched one partition")
		}
		if req.Home != 1 {
			t.Fatalf("home=%d", req.Home)
		}
	}
}

func TestMixedRespectsCrossPct(t *testing.T) {
	w := New(Config{Partitions: 4, RecordsPerPartition: 64, CrossPct: 30})
	g := w.NewGen(3)
	cross := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if txn.NewRequest(g.Mixed(0), 0).Cross {
			cross++
		}
	}
	got := float64(cross) / n * 100
	if got < 24 || got > 36 {
		t.Fatalf("cross rate %.1f%%, want ≈30%%", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	w := small()
	g1, g2 := w.NewGen(7), w.NewGen(7)
	for i := 0; i < 20; i++ {
		a := g1.Mixed(1).(*Txn)
		b := g2.Mixed(1).(*Txn)
		if len(a.keys) != len(b.keys) {
			t.Fatal("lengths differ")
		}
		for j := range a.keys {
			if a.keys[j] != b.keys[j] || a.parts[j] != b.parts[j] {
				t.Fatal("same seed must generate identical transactions")
			}
		}
	}
}

// executor applies a txn directly to a full DB (no concurrency): a
// reference Ctx used to validate procedure logic.
type executor struct {
	db  *storage.DB
	set txn.RWSet
}

func (e *executor) Read(tb storage.TableID, part int, key storage.Key) ([]byte, bool) {
	rec := e.db.Table(tb).Get(part, key)
	if rec == nil {
		return nil, false
	}
	val, tid, present := rec.ReadStable(nil)
	if !present {
		return nil, false
	}
	e.set.AddRead(tb, part, key, rec, tid)
	return val, true
}

func (e *executor) Write(tb storage.TableID, part int, key storage.Key, ops ...storage.FieldOp) {
	e.set.AddWrite(tb, part, key, ops...)
}

func (e *executor) Insert(tb storage.TableID, part int, key storage.Key, row []byte) {
	e.set.AddInsert(tb, part, key, row)
}

func (e *executor) Delete(tb storage.TableID, part int, key storage.Key) {
	e.set.AddDelete(tb, part, key)
}

func (e *executor) LookupIndex(tb storage.TableID, part, idx int, val []byte, dst []storage.Key) []storage.Key {
	return e.db.Table(tb).IndexLookup(part, idx, val, storage.IndexAllEpochs, dst)
}

func TestTxnRunProducesOneWrite(t *testing.T) {
	w := small()
	db := w.BuildDB(4, nil)
	w.Load(db)
	g := w.NewGen(5)
	ex := &executor{db: db}
	if err := g.Single(0).Run(ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.set.Reads) != 10 || len(ex.set.Writes) != 1 {
		t.Fatalf("reads=%d writes=%d", len(ex.set.Reads), len(ex.set.Writes))
	}
	if len(ex.set.Writes[0].Ops) != 1 || ex.set.Writes[0].Ops[0].Kind != storage.OpSetField {
		t.Fatal("write must be a single-field op")
	}
}

func TestRowSizeMatchesPaper(t *testing.T) {
	w := New(Config{Partitions: 1})
	// 10 columns × (2-byte length prefix + 10 bytes) = 120B ≈ paper's
	// "10 columns of 10 random bytes".
	if got := w.Schema().RowSize(); got != 120 {
		t.Fatalf("row size %d", got)
	}
}

// sameTxn fails unless a and b have identical footprints and write
// values.
func sameTxn(t *testing.T, i int, a, b *Txn) {
	t.Helper()
	if !reflect.DeepEqual(a.Accesses(), b.Accesses()) {
		t.Fatalf("txn %d: footprints differ:\n%v\n%v", i, a.Accesses(), b.Accesses())
	}
	if !reflect.DeepEqual(a.ops, b.ops) {
		t.Fatalf("txn %d: write ops differ: %v vs %v", i, a.ops, b.ops)
	}
}

// TestRecyclingGenMatchesFresh pins that recycling changes nothing a
// transaction carries: a generator whose every transaction is handed
// back produces the same footprints and values as one that allocates
// each anew, and it really does refill the same instance.
func TestRecyclingGenMatchesFresh(t *testing.T) {
	w := small()
	fresh, recycled := w.NewGen(11).(*Gen), w.NewGen(11).(*Gen)
	var prev *Txn
	for i := 0; i < 2000; i++ {
		home := i % 4
		a := fresh.Mixed(home).(*Txn)
		b := recycled.Mixed(home).(*Txn)
		sameTxn(t, i, a, b)
		if prev != nil && b != prev {
			t.Fatalf("txn %d: recycled generator allocated a new transaction", i)
		}
		recycled.Recycle(b)
		prev = b
	}
}

// TestGenNeverReissuesUnrecycled pins the ownership rule: a transaction
// that was not handed back — or was handed back after a newer one went
// out — is never returned again.
func TestGenNeverReissuesUnrecycled(t *testing.T) {
	g := small().NewGen(12).(*Gen)
	a := g.Cross(1)
	b := g.Cross(1)
	if a == b {
		t.Fatal("unrecycled transaction handed out again")
	}
	g.Recycle(a) // stale: b went out after it
	if c := g.Cross(1); c == a || c == b {
		t.Fatal("stale or outstanding transaction handed out again")
	}
	explicit := g.w.WriteTxn([]int{0}, []int{1}, []byte("v"))
	g.Recycle(explicit) // no generator owns a WriteTxn
	if d := g.Single(0); d == explicit {
		t.Fatal("explicitly built transaction adopted by the generator")
	}
}

// mapGen is the generator's key-drawing loop as it was written with a
// per-transaction seen-set map; the linear scan that replaced it must
// draw the same random numbers in the same order.
func mapGen(w *Workload, rng *rand.Rand, row, val []byte, home int, cross bool) ([]int, []storage.Key, []byte) {
	cfg := w.cfg
	parts := make([]int, cfg.OpsPerTxn)
	keys := make([]storage.Key, cfg.OpsPerTxn)
	rng.Read(val)
	w.schema.SetBytes(row, 1, val)
	arg := storage.SetFieldOp(w.schema, row, 1).Arg
	seen := make(map[storage.Key]struct{}, cfg.OpsPerTxn)
	for i := 0; i < cfg.OpsPerTxn; i++ {
		p := home
		if cross && i > 0 {
			p = rng.Intn(cfg.Partitions)
		}
		var k storage.Key
		for attempt := 0; ; attempt++ {
			k = w.Key(p, rng.Intn(cfg.RecordsPerPartition))
			if _, dup := seen[k]; !dup || attempt >= 8 {
				break
			}
		}
		seen[k] = struct{}{}
		parts[i], keys[i] = p, k
	}
	if cross && allSame(parts) {
		parts[cfg.OpsPerTxn-1] = (home + 1) % cfg.Partitions
		keys[cfg.OpsPerTxn-1] = w.Key(parts[cfg.OpsPerTxn-1], rng.Intn(cfg.RecordsPerPartition))
	}
	return parts, keys, arg
}

// TestGenDrawsMatchSeenMap replays the map-based draw loop on the same
// seed, over partitions small enough that duplicate keys (and the
// retry path) are frequent.
func TestGenDrawsMatchSeenMap(t *testing.T) {
	w := New(Config{Partitions: 2, RecordsPerPartition: 12, CrossPct: 50})
	g := w.NewGen(13).(*Gen)
	rng := rand.New(rand.NewSource(13))
	row, val := w.schema.NewRow(), make([]byte, w.cfg.FieldSize)
	for i := 0; i < 2000; i++ {
		home := i % 2
		cross := i%3 == 0
		var got *Txn
		if cross {
			got = g.Cross(home).(*Txn)
		} else {
			got = g.Single(home).(*Txn)
		}
		parts, keys, arg := mapGen(w, rng, row, val, home, cross)
		if !reflect.DeepEqual(got.parts, parts) || !reflect.DeepEqual(got.keys, keys) ||
			!reflect.DeepEqual(got.ops[0].Arg, arg) {
			t.Fatalf("txn %d: draws diverged from the seen-map loop", i)
		}
		g.Recycle(got)
	}
}
