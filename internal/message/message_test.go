package message

import (
	"testing"
)

func TestTxnIDOrderingAndString(t *testing.T) {
	a := TxnID{Site: 0, Seq: 1}
	b := TxnID{Site: 1, Seq: 1}
	c := TxnID{Site: 0, Seq: 2}
	if !a.Less(b) || !a.Less(c) || b.Less(a) {
		t.Fatal("TxnID ordering wrong")
	}
	if !b.Less(c) {
		t.Fatal("seq dominates site in age order")
	}
	if a.String() != "t0.1" {
		t.Fatalf("String = %q", a.String())
	}
	if !(TxnID{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
	if SiteID(3).String() != "s3" {
		t.Fatalf("SiteID string %q", SiteID(3).String())
	}
}

func TestViewHas(t *testing.T) {
	v := View{ID: 2, Members: []SiteID{0, 2, 4}}
	if !v.Has(2) || v.Has(1) {
		t.Fatal("View.Has wrong")
	}
	if v.String() == "" {
		t.Fatal("empty view string")
	}
}

// TestKindStringsComplete ensures every message type's kind has a name —
// catching a forgotten map entry when a new message is added.
func TestKindStringsComplete(t *testing.T) {
	for _, m := range codecSamples() {
		s := m.Kind().String()
		if s == "" || s[0] == 'K' && len(s) > 5 && s[:5] == "Kind(" {
			t.Fatalf("kind %d has no name", m.Kind())
		}
	}
	if got := Kind(9999).String(); got != "Kind(9999)" {
		t.Fatalf("unknown kind string %q", got)
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		ClassReliable: "reliable", 2: "class(2)", ClassCausal: "causal", ClassAtomic: "atomic",
	} {
		if c.String() != want {
			t.Fatalf("%d -> %q", c, c.String())
		}
	}
}

// TestDedupWritesFastPath: a duplicate-free write set passes through
// unchanged (no copy), while a rewritten key takes the slow path and
// keeps each key's final write.
func TestDedupWritesFastPath(t *testing.T) {
	kv := func(k, v string) KV { return KV{Key: Key(k), Value: Value(v)} }
	w := []KV{kv("a", "1"), kv("b", "2")}
	if got := DedupWrites(w); len(got) != 2 || &got[0] != &w[0] {
		t.Fatalf("fast path copied: got %v", got)
	}
	d := []KV{kv("a", "1"), kv("b", "2"), kv("a", "3")}
	got := DedupWrites(d)
	want := []KV{kv("b", "2"), kv("a", "3")}
	if len(got) != len(want) {
		t.Fatalf("slow path: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i].Key != want[i].Key || string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("slow path: got %v, want %v", got, want)
		}
	}
}
