// Package core mimics an engine package for maporder tests.
package core

import "sort"

type peer struct{}

func (p *peer) sendMsg(v int)   {}
func (p *peer) observe(v int)   {}
func deliverUp(v int)           {}
func releaseAll(v int)          {}
func recordLocally(m map[int]int, k int) { m[k] = 1 }

// badEmit puts messages on the wire in map order.
func badEmit(p *peer, pend map[int]int) {
	for _, v := range pend {
		p.sendMsg(v) // want "sendMsg called inside range over map: message order is nondeterministic"
	}
}

// badDeliver hands deliveries up in map order.
func badDeliver(pend map[int]int) {
	for _, v := range pend {
		deliverUp(v) // want "deliverUp called inside range over map: message order is nondeterministic"
	}
}

// badRelease releases locks in map order: the grant callbacks resume the
// released keys' waiters in that order.
func badRelease(pend map[int]int) {
	for k := range pend {
		releaseAll(k) // want "releaseAll called inside range over map: message order is nondeterministic"
	}
}

// goodSortedRelease releases in sorted order.
func goodSortedRelease(pend map[int]int) {
	var keys []int
	for k := range pend {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		releaseAll(k)
	}
}

// badChannel sends on a channel in map order.
func badChannel(pend map[int]int, ch chan int) {
	for _, v := range pend {
		ch <- v // want "channel send inside range over map: iteration order is nondeterministic"
	}
}

// badAccumulate lets map order escape through an unsorted slice.
func badAccumulate(pend map[int]int) []int {
	var out []int
	for k := range pend {
		out = append(out, k) // want "out accumulates map iteration order and escapes the loop unsorted"
	}
	return out
}

// goodCollectThenSort is the prescribed fix: the sort launders the order.
func goodCollectThenSort(pend map[int]int) []int {
	var keys []int
	for k := range pend {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// goodLocalEffects only counts and writes per-key state: order free.
func goodLocalEffects(pend map[int]int, acc map[int]int) int {
	n := 0
	for k := range pend {
		n++
		recordLocally(acc, k)
	}
	return n
}

// goodAllowed carries a justified suppression.
func goodAllowed(p *peer, pend map[int]int) {
	for _, v := range pend {
		p.sendMsg(v) //reprolint:allow maporder fan-out is commutative, receiver dedups by seq
	}
}

// pendEntry mimics a multi-field protocol identifier.
type pendEntry struct {
	origin int
	seq    int
}

// badSingleFieldSort sorts by seq alone: ties between origins keep their
// map iteration order, so the sort does not launder the accumulation.
func badSingleFieldSort(pend map[pendEntry]int) []pendEntry {
	var out []pendEntry
	for k := range pend {
		out = append(out, k) // want "out accumulates map iteration order and escapes the loop unsorted"
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// goodTieBreakSort breaks ties on a second field: a total order, launders.
func goodTieBreakSort(pend map[pendEntry]int) []pendEntry {
	var out []pendEntry
	for k := range pend {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].origin != out[j].origin {
			return out[i].origin < out[j].origin
		}
		return out[i].seq < out[j].seq
	})
	return out
}

func (p pendEntry) less(o pendEntry) bool {
	return p.origin < o.origin || (p.origin == o.origin && p.seq < o.seq)
}

// goodMethodSort compares through a method the analysis cannot see into:
// assumed total.
func goodMethodSort(pend map[pendEntry]int) []pendEntry {
	var out []pendEntry
	for k := range pend {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}
