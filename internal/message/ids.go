// Package message defines the identifiers and wire messages exchanged by
// every layer of the replicated-database stack: the broadcast primitives,
// the membership service, the replication protocols, and the point-to-point
// baseline. Keeping all wire types in one leaf package lets both the
// deterministic simulator and the TCP runtime share a single codec.
package message

import (
	"fmt"
	"strconv"
)

// SiteID identifies a database site (replica). Sites are numbered densely
// from 0 so that identifiers double as slice indices in vector clocks.
type SiteID int32

// String implements fmt.Stringer.
func (s SiteID) String() string { return "s" + strconv.Itoa(int(s)) }

// GroupID identifies a replication group (shard) under partial
// replication. The consistent-hash ring (internal/shard) maps keys to
// groups and groups to the subset of sites that replicate them. Full
// replication is the single group 0 over all sites.
type GroupID int32

// String implements fmt.Stringer.
func (g GroupID) String() string { return "g" + strconv.Itoa(int(g)) }

// TxnID identifies a transaction globally: the home site that initiated it
// plus a per-site monotone sequence number.
type TxnID struct {
	Site SiteID
	Seq  uint64
}

// String implements fmt.Stringer.
func (t TxnID) String() string { return fmt.Sprintf("t%d.%d", t.Site, t.Seq) }

// IsZero reports whether t is the zero TxnID, which is never assigned to a
// real transaction.
func (t TxnID) IsZero() bool { return t.Seq == 0 && t.Site == 0 }

// Less orders transactions by age: lower sequence numbers are older, with
// the site identifier breaking ties. The baseline protocol's wound-wait
// policy uses this order.
func (t TxnID) Less(o TxnID) bool {
	if t.Seq != o.Seq {
		return t.Seq < o.Seq
	}
	return t.Site < o.Site
}

// Key names a database object. Under the default full replication every
// site stores a copy of every key; with partial replication
// (internal/shard) only the sites of the key's replication group do.
type Key string

// Value is an uninterpreted object value.
type Value []byte

// KeyVer pairs a key with the version (commit index) a transaction observed
// or intends to install. Protocol A's certification rule compares these base
// versions against the committed-version table.
type KeyVer struct {
	Key Key
	Ver uint64
}

// KV pairs a key with a value in a transaction's write set.
type KV struct {
	Key   Key
	Value Value
}

// DedupWrites collapses a write sequence so each key appears once with its
// final value, at the position of that final write. The common case — no
// key written twice — returns the input slice itself: the quadratic
// duplicate scan over a transaction's (small) write set costs less than the
// map the slow path builds, and it keeps the commit hot path
// allocation-free. A caller that builds a message from the result must not
// append to the input afterwards.
func DedupWrites(writes []KV) []KV {
	if len(writes) <= 1 {
		return writes
	}
	for i := 1; i < len(writes); i++ {
		for j := 0; j < i; j++ {
			if writes[j].Key == writes[i].Key {
				return dedupWritesSlow(writes) //reprolint:allow noalloc slow path runs only when a txn rewrites a key; the duplicate-free fast path is pinned at 0 allocs/op by TestEnqueueAllocs
			}
		}
	}
	return writes
}

// dedupWritesSlow rebuilds a write set that contains duplicate keys,
// keeping each key's final write.
func dedupWritesSlow(writes []KV) []KV {
	last := make(map[Key]int, len(writes))
	for i, w := range writes {
		last[w.Key] = i
	}
	out := make([]KV, 0, len(writes))
	for i, w := range writes {
		if last[w.Key] == i {
			out = append(out, w)
		}
	}
	return out
}
