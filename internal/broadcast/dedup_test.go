package broadcast

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// handRT is a simulator site's runtime whose sends are kept in a list
// instead of delivered, for driving one stack by hand.
type handRT struct {
	env.Runtime
	sent []message.Message
}

func (r *handRT) Send(_ message.SiteID, m message.Message) { r.sent = append(r.sent, m) }

// newHandRT is site 0 of a three-site simulated cluster.
func newHandRT() *handRT { return &handRT{Runtime: sim.NewCluster(3, netsim.Fixed{}, 1).Runtime(0)} }

// handStack builds a stack on a new handRT, counting its deliveries in
// *delivered.
func handStack(cfg Config, delivered *int) (*Stack, *handRT) {
	rt := newHandRT()
	cfg.Deliver = func(Delivery) { *delivered++ }
	return New(rt, cfg), rt
}

func reliable(origin message.SiteID, seq uint64) *message.Bcast {
	return &message.Bcast{Class: message.ClassReliable, Origin: origin, Seq: seq}
}

// TestDedupWindowMatchesExactModel drives random per-origin streams through
// the stack — first copies displaced by up to W/2, duplicates and relayed
// copies anywhere inside the window, the stack's own broadcasts echoed back
// — and checks every accept/reject decision against a map of every
// (origin, seq) ever received. The streams run to three windows per origin,
// so every window slides; nothing arrives W or more below its origin's top,
// the one place the window and the map disagree.
func TestDedupWindowMatchesExactModel(t *testing.T) {
	delivered := 0
	st, _ := handStack(Config{}, &delivered)
	w := st.window
	rng := rand.New(rand.NewSource(5))

	const origins = 3 // remote origins 1..3; the stack itself is 0
	n := int(3 * w)
	perm := make([][]uint64, origins+1)
	for o := 1; o <= origins; o++ {
		keys := make([]int, n+1)
		seqs := make([]uint64, n)
		for i := range seqs {
			seqs[i] = uint64(i + 1)
			keys[i+1] = i + 1 + rng.Intn(int(w/2))
		}
		sort.SliceStable(seqs, func(i, j int) bool { return keys[seqs[i]] < keys[seqs[j]] })
		perm[o] = seqs
	}

	type key struct {
		origin message.SiteID
		seq    uint64
	}
	model := make(map[key]bool)
	top := make([]uint64, origins+1)
	check := func(b *message.Bcast) {
		t.Helper()
		k := key{b.Origin, b.Seq}
		want := !model[k]
		model[k] = true
		if want && b.Seq > top[b.Origin] {
			top[b.Origin] = b.Seq
		}
		before := delivered
		st.Handle(1, b)
		if got := delivered > before; got != want {
			t.Fatalf("%v/%d (relayed %v, top %d): accepted %v, the exact model says %v",
				b.Origin, b.Seq, b.Relayed, top[b.Origin], got, want)
		}
	}
	for {
		var live []int
		for o := 1; o <= origins; o++ {
			if len(perm[o]) > 0 {
				live = append(live, o)
			}
		}
		if len(live) == 0 {
			break
		}
		switch r := rng.Intn(20); {
		case r == 0:
			seq := st.Broadcast(message.ClassReliable, nil)
			model[key{0, seq}] = true
			top[0] = seq
		case r < 12:
			o := live[rng.Intn(len(live))]
			check(reliable(message.SiteID(o), perm[o][0]))
			perm[o] = perm[o][1:]
		default:
			o := rng.Intn(origins + 1)
			if top[o] == 0 {
				continue
			}
			low := uint64(1)
			if top[o] >= w {
				low = top[o] - w + 1
			}
			b := reliable(message.SiteID(o), low+uint64(rng.Int63n(int64(top[o]-low+1))))
			b.Relayed = rng.Intn(2) == 0
			check(b)
		}
	}
	if want := len(model); delivered != want {
		t.Fatalf("delivered %d, model holds %d", delivered, want)
	}
	want := map[message.SiteID]uint64{}
	for o, n := range top {
		want[message.SiteID(o)] = n
	}
	if got := st.ExportSync().HighSeq; len(got) != 1 || !reflect.DeepEqual(got[message.ClassReliable], want) {
		t.Fatalf("exported HighSeq %v, want reliable %v", got, want)
	}
}

// TestDedupImportSyncReplaysHeld: a state transfer raises HighSeq above
// messages it also hands over as held; the replays are new to the window
// and must be accepted, or a causal stream would wait for them forever.
func TestDedupImportSyncReplaysHeld(t *testing.T) {
	var got []uint64
	st := New(newHandRT(), Config{Deliver: func(d Delivery) { got = append(got, d.Seq) }})
	causal := func(seq uint64) *message.Bcast {
		return &message.Bcast{Class: message.ClassCausal, Origin: 1, Seq: seq, VC: vclock.VC{0, seq, 0}}
	}
	st.ImportSync(&message.StackSync{
		CausalVC: vclock.VC{0, 97, 0},
		HighSeq:  map[message.Class]map[message.SiteID]uint64{message.ClassCausal: {1: 100}},
		Held:     []*message.Bcast{causal(99), causal(100)},
	})
	if len(got) != 0 {
		t.Fatalf("delivered %v before seq 98 arrived", got)
	}
	st.Handle(1, causal(98))
	if want := []uint64{98, 99, 100}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v: the held replays were dropped", got, want)
	}
	if hs := st.ExportSync().HighSeq[message.ClassCausal][1]; hs != 100 {
		t.Fatalf("exported HighSeq %d, want 100", hs)
	}
}

// TestRetiredClassDropped: class 2, the retired FIFO class, is reserved on
// the wire; a broadcast or a transferred frontier naming it is dropped like
// any unknown class's.
func TestRetiredClassDropped(t *testing.T) {
	delivered := 0
	st, _ := handStack(Config{}, &delivered)
	st.Handle(1, &message.Bcast{Class: 2, Origin: 1, Seq: 1, Payload: &message.Heartbeat{From: 1}})
	st.ImportSync(&message.StackSync{HighSeq: map[message.Class]map[message.SiteID]uint64{2: {1: 9}}})
	if delivered != 0 {
		t.Fatalf("delivered %d broadcasts of the retired class", delivered)
	}
	if hs := st.ExportSync().HighSeq; len(hs) != 0 {
		t.Fatalf("exported HighSeq %v, want none", hs)
	}
}

// TestDedupFreshStackLateCopy: a restarted stack's first message from an
// origin may carry any sequence number; a late copy below it is new, its
// repeat is not.
func TestDedupFreshStackLateCopy(t *testing.T) {
	delivered := 0
	st, _ := handStack(Config{}, &delivered)
	for _, c := range []struct {
		seq  uint64
		want int
	}{{500000, 1}, {499990, 2}, {499990, 2}, {500000, 2}, {500001, 3}} {
		st.Handle(1, reliable(1, c.seq))
		if delivered != c.want {
			t.Fatalf("after seq %d: %d delivered, want %d", c.seq, delivered, c.want)
		}
	}
}

// TestDedupBeyondWindowDiscarded pins the one documented difference from
// an exact set: a never-seen copy W or more below its origin's top is
// discarded as already seen. W is max(8192, HistoryRetention) rounded up
// to 64.
func TestDedupBeyondWindowDiscarded(t *testing.T) {
	delivered := 0
	if st, _ := handStack(Config{HistoryRetention: 10000}, &delivered); st.window != 10048 {
		t.Fatalf("window %d with retention 10000, want 10048", st.window)
	}
	st, _ := handStack(Config{HistoryRetention: 4}, &delivered)
	w := st.window
	if w != 8192 {
		t.Fatalf("window %d with retention 4, want 8192", w)
	}
	st.Handle(1, reliable(1, w+10))
	st.Handle(1, reliable(1, 10)) // exactly W below the top
	if delivered != 1 {
		t.Fatalf("a copy W below the top was accepted")
	}
	st.Handle(1, reliable(1, 11)) // W-1 below: inside the window
	if delivered != 2 {
		t.Fatalf("a copy W-1 below the top was discarded")
	}
	// A jump of more than W forgets every flag: 2W+10 shares W+10's bit.
	st.Handle(1, reliable(1, 2*w+11))
	st.Handle(1, reliable(1, 2*w+10))
	if delivered != 4 {
		t.Fatalf("%d delivered after a jump past the window, want 4", delivered)
	}
}

// TestDedupHeapBounded: the stack's receive path retains no memory per
// broadcast. 200k reliable broadcasts from two origins must leave less
// than one byte per broadcast on the heap; a set of every message seen
// keeps about 50.
func TestDedupHeapBounded(t *testing.T) {
	const n = 200_000
	delivered := 0
	st, _ := handStack(Config{}, &delivered)
	bs := []*message.Bcast{reliable(1, 0), reliable(2, 0)}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for i := 0; i < n; i++ {
		b := bs[i%2]
		b.Seq++
		st.Handle(b.Origin, b)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(st)
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	if per := (float64(ms.HeapAlloc) - float64(before)) / n; per >= 1 {
		t.Fatalf("%.1f B of heap retained per broadcast, want < 1", per)
	}
}

// TestHandleBcastAllocs pins the reprolint:noalloc marker on the dedup
// window at run time: receiving the next in-order reliable broadcast —
// dedup, delivery count, hand-off — allocates nothing inside the stack.
// One run is a block of receives, so an amortized allocation (a growing
// map) cannot round down to zero per message.
func TestHandleBcastAllocs(t *testing.T) {
	const block = 4096
	delivered := 0
	st, _ := handStack(Config{}, &delivered)
	b := reliable(1, 0)
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < block; i++ {
			b.Seq++
			st.Handle(1, b)
		}
	}); allocs != 0 {
		t.Fatalf("%v allocs over %d in-order reliable receives, want 0", allocs, block)
	}
}

// TestRetransmitFrame: a resent message is the relayed envelope plus a
// one-entry SeqOrder whose entry shares the announcement's allocation,
// encoding to the same bytes as a plain one-entry literal.
func TestRetransmitFrame(t *testing.T) {
	delivered := 0
	st, rt := handStack(Config{}, &delivered)
	for i := 1; i <= 3; i++ {
		st.Broadcast(message.ClassAtomic, payload(0, i))
	}
	if delivered != 3 {
		t.Fatalf("sequencer delivered %d of its own 3", delivered)
	}
	rt.sent = rt.sent[:0]
	if n := st.Retransmit(2, 2); n != 2 {
		t.Fatalf("retransmit from 2 resent %d, want 2", n)
	}
	if len(rt.sent) != 4 {
		t.Fatalf("retransmit sent %d messages, want 4", len(rt.sent))
	}
	for i, idx := range []uint64{2, 3} {
		if b, ok := rt.sent[2*i].(*message.Bcast); !ok || !b.Relayed || b.Seq != idx {
			t.Fatalf("send %d = %#v, want the relayed envelope of seq %d", 2*i, rt.sent[2*i], idx)
		}
		want := &message.SeqOrder{Sequencer: 0, Entries: []message.OrderEntry{{Origin: 0, Seq: idx, Index: idx}}}
		frame := message.AppendMessage(nil, rt.sent[2*i+1])
		if wantFrame := message.AppendMessage(nil, want); string(frame) != string(wantFrame) {
			t.Fatalf("announcement of %d encodes to %x, want %x", idx, frame, wantFrame)
		}
		got, err := message.DecodeMessage(frame)
		if err != nil {
			t.Fatalf("decode announcement of %d: %v", idx, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("announcement of %d decodes to %#v, want %#v", idx, got, want)
		}
	}
	// One resent message costs its relayed envelope and its announcement.
	if allocs := testing.AllocsPerRun(100, func() {
		rt.sent = rt.sent[:0]
		st.Retransmit(2, 3)
	}); allocs != 2 {
		t.Fatalf("resending one message = %v allocs, want 2", allocs)
	}
}
