package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/message"
)

func txn(site, seq int) message.TxnID {
	return message.TxnID{Site: message.SiteID(site), Seq: uint64(seq)}
}

func kv(k string, v string) message.KV {
	return message.KV{Key: message.Key(k), Value: message.Value(v)}
}

func TestGetLatestAndAt(t *testing.T) {
	s := New(nil)
	if _, ok := s.Get("x"); ok {
		t.Fatal("empty store returned a value")
	}
	mustApply(t, s, txn(0, 1), 1, kv("x", "v1"))
	mustApply(t, s, txn(0, 2), 5, kv("x", "v5"))
	got, ok := s.Get("x")
	if !ok || string(got.Value) != "v5" || got.Index != 5 {
		t.Fatalf("Get = %+v ok=%v", got, ok)
	}
	at, ok, err := s.GetAt("x", 3)
	if err != nil || !ok || string(at.Value) != "v1" {
		t.Fatalf("GetAt(3) = %+v ok=%v err=%v", at, ok, err)
	}
	if _, ok, err := s.GetAt("y", 3); ok || err != nil {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.GetAt("x", 0); ok || err != nil {
		t.Fatalf("before first version: ok=%v err=%v", ok, err)
	}
}

func mustApply(t *testing.T, s *Store, id message.TxnID, idx uint64, writes ...message.KV) {
	t.Helper()
	if err := s.Apply(id, writes, idx); err != nil {
		t.Fatalf("apply %v@%d: %v", id, idx, err)
	}
}

func TestApplyMonotoneEnforced(t *testing.T) {
	s := New(nil)
	mustApply(t, s, txn(0, 1), 5, kv("x", "a"))
	err := s.Apply(txn(0, 2), []message.KV{kv("x", "b")}, 5)
	if !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("err = %v, want ErrStaleIndex", err)
	}
	err = s.Apply(txn(0, 2), []message.KV{kv("x", "b")}, 4)
	if !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("err = %v, want ErrStaleIndex", err)
	}
	// Different key at an older index is fine (per-key monotonicity).
	mustApply(t, s, txn(0, 3), 3, kv("y", "c"))
	if s.Applied() != 5 {
		t.Fatalf("applied = %d", s.Applied())
	}
}

func TestGCHorizon(t *testing.T) {
	s := New(nil)
	s.MaxVersions = 4
	for i := 1; i <= 10; i++ {
		mustApply(t, s, txn(0, i), uint64(i), kv("x", fmt.Sprintf("v%d", i)))
	}
	if s.VersionCount() != 4 {
		t.Fatalf("versions = %d, want 4", s.VersionCount())
	}
	// Reading below the horizon reports ErrVersionGone, not a silent miss.
	if _, _, err := s.GetAt("x", 2); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("err = %v, want ErrVersionGone", err)
	}
	// Reading within the retained window still works.
	v, ok, err := s.GetAt("x", 9)
	if err != nil || !ok || string(v.Value) != "v9" {
		t.Fatalf("GetAt(9) = %+v ok=%v err=%v", v, ok, err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New(nil)
	mustApply(t, s, txn(0, 1), 1, kv("b", "1"), kv("a", "1"))
	mustApply(t, s, txn(1, 1), 2, kv("a", "2"))
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Key != "a" || snap[1].Key != "b" {
		t.Fatalf("snapshot keys wrong: %+v", snap)
	}
	r := New(nil)
	r.Restore(snap, s.Applied())
	if r.Applied() != 2 {
		t.Fatalf("restored applied = %d", r.Applied())
	}
	v, ok := r.Get("a")
	if !ok || string(v.Value) != "2" || v.Writer != txn(1, 1) {
		t.Fatalf("restored a = %+v", v)
	}
	order := r.VersionOrder("a")
	if len(order) != 2 || order[0] != txn(0, 1) || order[1] != txn(1, 1) {
		t.Fatalf("version order %v", order)
	}
	// Restore deep-copies: mutating the snapshot must not affect the store.
	snap[0].Versions[0].Value = message.Value("mutated")
	if v, _, _ := r.GetAt("a", 1); string(v.Value) == "mutated" {
		t.Fatal("restore aliases snapshot memory")
	}
}

func TestWALRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	recs := []Record{
		{Index: 1, Txn: txn(0, 1), Writes: []message.KV{kv("x", "a"), kv("y", "b")}},
		{Index: 2, Txn: txn(1, 1), Writes: []message.KV{kv("x", "c")}},
		{Index: 3, Txn: txn(2, 9), Writes: nil},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var got []Record
	if err := Replay(bytes.NewReader(buf.Bytes()), func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Index != recs[i].Index || got[i].Txn != recs[i].Txn || len(got[i].Writes) != len(recs[i].Writes) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
		for j := range recs[i].Writes {
			if got[i].Writes[j].Key != recs[i].Writes[j].Key ||
				!bytes.Equal(got[i].Writes[j].Value, recs[i].Writes[j].Value) {
				t.Fatalf("record %d write %d mismatch", i, j)
			}
		}
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	if err := w.Append(Record{Index: 1, Txn: txn(0, 1), Writes: []message.KV{kv("x", "a")}}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Len()
	if err := w.Append(Record{Index: 2, Txn: txn(0, 2), Writes: []message.KV{kv("x", "b")}}); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:whole+5] // cut mid-record
	n := 0
	if err := Replay(bytes.NewReader(torn), func(Record) error { n++; return nil }); err != nil {
		t.Fatalf("torn tail should not error: %v", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d, want 1", n)
	}
}

func TestWALCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	if err := w.Append(Record{Index: 1, Txn: txn(0, 1), Writes: []message.KV{kv("x", "a")}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-1] ^= 0xFF // flip a byte in the body
	err := Replay(bytes.NewReader(b), func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestRecoverRebuildsStore: replaying a store's log into an empty store
// rebuilds its version chains — the storage half of checkpoint.Recover.
func TestRecoverRebuildsStore(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenSegments(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(w)
	mustApply(t, s, txn(0, 1), 1, kv("x", "a"))
	mustApply(t, s, txn(0, 2), 2, kv("x", "b"), kv("y", "c"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := New(nil)
	if err := ReplaySegments(dir, func(rec Record) error { return r.Apply(rec.Txn, rec.Writes, rec.Index) }); err != nil {
		t.Fatal(err)
	}
	if r.Applied() != 2 {
		t.Fatalf("recovered applied = %d", r.Applied())
	}
	v, ok := r.Get("x")
	if !ok || string(v.Value) != "b" {
		t.Fatalf("recovered x = %+v", v)
	}
	if got := r.VersionOrder("x"); len(got) != 2 {
		t.Fatalf("recovered chain %v", got)
	}
}

// Property: random apply sequences — Get always returns the
// highest-indexed write, GetAt the highest <= the requested index.
func TestRandomAppliesProperty(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func() bool {
		s := New(nil)
		s.MaxVersions = 0 // unbounded so the model matches exactly
		model := map[message.Key][]message.VersionRec{}
		idx := uint64(0)
		for step := 0; step < 60; step++ {
			idx += uint64(1 + r.Intn(3))
			k := message.Key([]byte{'a' + byte(r.Intn(4))})
			val := message.Value(fmt.Sprintf("%d", idx))
			id := txn(r.Intn(3), step+1)
			if err := s.Apply(id, []message.KV{{Key: k, Value: val}}, idx); err != nil {
				return false
			}
			model[k] = append(model[k], message.VersionRec{Index: idx, Writer: id, Value: val})
		}
		for k, versions := range model {
			got, ok := s.Get(k)
			want := versions[len(versions)-1]
			if !ok || got.Index != want.Index || string(got.Value) != string(want.Value) {
				return false
			}
			probe := versions[r.Intn(len(versions))].Index
			gotAt, ok, err := s.GetAt(k, probe)
			if err != nil || !ok || gotAt.Index != probe {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreEnforcesMaxVersions: a donor with a deeper retention window
// must not inflate the receiver's chains past its own MaxVersions bound —
// and the trimmed keys must read as truncated below the horizon, not as
// silent holes.
func TestRestoreEnforcesMaxVersions(t *testing.T) {
	donor := New(nil)
	donor.MaxVersions = 0 // unbounded: retain all 8 versions
	for i := 1; i <= 8; i++ {
		mustApply(t, donor, txn(0, i), uint64(i), kv("x", fmt.Sprintf("v%d", i)))
	}
	r := New(nil)
	r.MaxVersions = 3
	r.Restore(donor.Snapshot(), donor.Applied())
	if r.VersionCount() != 3 {
		t.Fatalf("restored versions = %d, want 3", r.VersionCount())
	}
	if v, ok := r.Get("x"); !ok || string(v.Value) != "v8" {
		t.Fatalf("tip after trimmed restore = %+v ok=%v", v, ok)
	}
	if v, ok, err := r.GetAt("x", 6); err != nil || !ok || string(v.Value) != "v6" {
		t.Fatalf("GetAt(6) inside the window = %+v ok=%v err=%v", v, ok, err)
	}
	if _, _, err := r.GetAt("x", 4); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("GetAt below the trimmed horizon: err = %v, want ErrVersionGone", err)
	}
}

// TestDeltaMergeDelta: a lagging receiver patched with Delta(since) must
// converge to the donor's exact state, and re-merging the same delta must
// be a no-op (idempotence over the resync crash window).
func TestDeltaMergeDelta(t *testing.T) {
	donor := New(nil)
	mustApply(t, donor, txn(0, 1), 1, kv("x", "1"))
	mustApply(t, donor, txn(1, 1), 2, kv("y", "1"))
	mustApply(t, donor, txn(0, 2), 3, kv("x", "2"))
	mustApply(t, donor, txn(1, 2), 4, kv("z", "1"))

	recv := New(nil)
	mustApply(t, recv, txn(0, 1), 1, kv("x", "1"))
	mustApply(t, recv, txn(1, 1), 2, kv("y", "1"))

	d := donor.Delta(recv.Applied())
	if len(d) != 2 || d[0].Key != "x" || d[1].Key != "z" {
		t.Fatalf("delta keys = %+v, want x and z only", d)
	}
	if len(d[0].Versions) != 1 || d[0].Versions[0].Index != 3 {
		t.Fatalf("delta for x = %+v, want just index 3", d[0].Versions)
	}
	for range [2]int{} { // twice: the merge must be idempotent
		recv.MergeDelta(d, donor.Applied())
		if recv.Applied() != donor.Applied() {
			t.Fatalf("applied = %d, want %d", recv.Applied(), donor.Applied())
		}
		if !reflect.DeepEqual(recv.Snapshot(), donor.Snapshot()) {
			t.Fatalf("snapshots diverge:\n recv %+v\ndonor %+v", recv.Snapshot(), donor.Snapshot())
		}
	}
}

// TestDeltaReplaceAfterGC: when the donor GC'd versions inside (since, tip],
// appending would leave a silent hole — the entry must carry Replace, and
// the receiver must swap its chain and report truncation below the horizon.
func TestDeltaReplaceAfterGC(t *testing.T) {
	donor := New(nil)
	donor.MaxVersions = 2
	for i := 1; i <= 5; i++ {
		mustApply(t, donor, txn(0, i), uint64(i), kv("x", fmt.Sprintf("v%d", i)))
	}
	d := donor.Delta(2) // donor retains only indexes 4,5: a gap at 3
	if len(d) != 1 || !d[0].Replace {
		t.Fatalf("delta = %+v, want one Replace entry", d)
	}
	recv := New(nil)
	mustApply(t, recv, txn(0, 1), 1, kv("x", "v1"))
	mustApply(t, recv, txn(0, 2), 2, kv("x", "v2"))
	recv.MergeDelta(d, donor.Applied())
	if got := recv.VersionOrder("x"); len(got) != 2 || got[0] != txn(0, 4) || got[1] != txn(0, 5) {
		t.Fatalf("merged chain = %v, want the donor's retained window", got)
	}
	if _, _, err := recv.GetAt("x", 1); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("read below the replaced chain: err = %v, want ErrVersionGone", err)
	}
}
