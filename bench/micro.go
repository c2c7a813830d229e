package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/broadcast"
	"repro/internal/commitpipe"
	"repro/internal/env"
	"repro/internal/livenet"
	"repro/internal/lockmgr"
	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The micro-runs time one layer at a time through its exported functions,
// on an otherwise idle process, so the end-to-end figures decompose. Each
// runs for plan.micro.

// timeOps calls fn(batch) until budget has passed and reports nanoseconds
// and heap allocations per operation. One untimed batch warms caches first.
func timeOps(budget time.Duration, batch int, fn func(n int)) (ns, allocs float64, ops int64) {
	fn(batch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start) < budget {
		fn(batch)
		ops += int64(batch)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops), ops
}

func microRuns(res *runResult, def *workloadDef, captured []message.Message, p plan, dataRoot string) {
	budget := p.micro
	runtime.GC()

	microCodec(res, captured)
	if err := microPipe(res); err != nil {
		res.violate("livenet pipe micro-run: %v", err)
	}
	for _, m := range []struct {
		name  string
		class message.Class
		mode  broadcast.AtomicMode
	}{
		{"reliable", message.ClassReliable, 0},
		{"causal", message.ClassCausal, 0},
		{"atomic", message.ClassAtomic, broadcast.AtomicSequencer},
		{"isis", message.ClassAtomic, broadcast.AtomicIsis},
		{"batch", message.ClassAtomic, broadcast.AtomicBatch},
	} {
		ns, allocs, ops, err := microBroadcast(budget, def.sites, m.class, m.mode)
		if err != nil {
			res.violate("broadcast %s micro-run: %v", m.name, err)
		}
		res.add("broadcast."+m.name+"_deliver_ns", "ns", ns, ops)
		res.add("broadcast."+m.name+"_deliver_allocs", "count", allocs, ops)
	}
	if err := microSolo(res, p, dataRoot); err != nil {
		res.violate("solo micro-run: %v", err)
	}
	microLocks(res, budget)
	microCommitpipe(res, budget, def.valueSize)
	microStorage(res, budget, def.valueSize)
	if ring, err := def.ring(); err != nil {
		res.violate("ring: %v", err)
	} else if ring != nil {
		keys := benchKeys(1024)
		var sink message.GroupID
		ns, _, ops := timeOps(budget, len(keys), func(n int) {
			for i := 0; i < n; i++ {
				sink += ring.GroupOf(keys[i])
			}
		})
		_ = sink
		res.add("shard.group_of_ns", "ns", ns, ops)
	} else {
		res.add("shard.group_of_ns", "ns", 0, 0)
	}
}

func benchKeys(n int) []message.Key {
	keys := make([]message.Key, n)
	for i := range keys {
		keys[i] = message.Key(fmt.Sprintf("k%d", i))
	}
	return keys
}

// wireEnvelope mirrors livenet's unexported wire frame field for field, so
// replaying captured messages through a gob stream costs what the sender
// and read loops pay per envelope at this commit. message.wire_bytes_per_msg
// is measured at the sockets and does not depend on this mirror.
type wireEnvelope struct {
	From message.SiteID
	Msg  message.Message
}

// microCodec replays the envelopes site 0 received during the traced run
// through one gob stream, as one connection would carry them.
func microCodec(res *runResult, captured []message.Message) {
	n := int64(len(captured))
	if n == 0 {
		res.add("message.encode_ns_per_msg", "ns", 0, 0)
		res.add("message.decode_ns_per_msg", "ns", 0, 0)
		res.add("message.codec_allocs_per_msg", "count", 0, 0)
		return
	}
	message.RegisterGob()
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	enc := gob.NewEncoder(&buf)
	for _, m := range captured {
		if err := enc.Encode(wireEnvelope{From: 1, Msg: m}); err != nil {
			res.violate("codec micro-run: encode %v: %v", m.Kind(), err)
			return
		}
	}
	encT := time.Since(start)
	start = time.Now()
	dec := gob.NewDecoder(&buf)
	for range captured {
		var e wireEnvelope
		if err := dec.Decode(&e); err != nil {
			res.violate("codec micro-run: decode: %v", err)
			return
		}
	}
	decT := time.Since(start)
	runtime.ReadMemStats(&after)
	res.add("message.encode_ns_per_msg", "ns", float64(encT)/float64(n), n)
	res.add("message.decode_ns_per_msg", "ns", float64(decT)/float64(n), n)
	res.add("message.codec_allocs_per_msg", "count", float64(after.Mallocs-before.Mallocs)/float64(n), n)
}

type countNode struct{ n atomic.Int64 }

func (*countNode) Start()                                    {}
func (c *countNode) Receive(message.SiteID, message.Message) { c.n.Add(1) }

// microPipe measures the transport alone: two hosts on loopback, a node
// that only counts, one direction, one typical write envelope repeated.
func microPipe(res *runResult) error {
	const msgs = 20000
	addrs := map[message.SiteID]string{}
	lns := make([]net.Listener, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		addrs[message.SiteID(i)] = ln.Addr().String()
	}
	hosts := make([]*livenet.Host, 2)
	sink := &countNode{}
	for i := range hosts {
		// The queue holds the whole burst: the run measures the pipe's
		// drain rate, not the drop policy.
		h, err := livenet.New(livenet.Config{ID: message.SiteID(i), Addrs: addrs, Listener: lns[i], SendQueue: msgs})
		if err != nil {
			return err
		}
		var node env.Node = &countNode{}
		if i == 1 {
			node = sink
		}
		h.Bind(node)
		if err := h.Start(); err != nil {
			return err
		}
		hosts[i] = h
		defer h.Close()
	}
	m := &message.WriteReq{Txn: message.TxnID{Site: 0, Seq: 1}, OpSeq: 1, Key: "k12345", Value: make(message.Value, 64)}
	start := time.Now()
	for i := 0; i < msgs; i++ {
		hosts[0].Send(1, m)
	}
	for sink.n.Load() < msgs {
		if time.Since(start) > drainDeadline {
			return fmt.Errorf("only %d of %d messages arrived", sink.n.Load(), msgs)
		}
		time.Sleep(200 * time.Microsecond)
	}
	res.add("livenet.pipe_msgs_per_s", "1/s", msgs/time.Since(start).Seconds(), msgs)
	return nil
}

type stackNode struct{ st *broadcast.Stack }

func (stackNode) Start()                                           {}
func (a stackNode) Receive(from message.SiteID, m message.Message) { a.st.Handle(from, m) }

// microBroadcast times one broadcast delivered at every site of an
// in-memory cluster, as the repository's BenchmarkBroadcastStack does.
func microBroadcast(budget time.Duration, n int, class message.Class, mode broadcast.AtomicMode) (ns, allocs float64, ops int64, err error) {
	c := sim.NewCluster(n, netsim.Fixed{Delay: time.Microsecond}, 1)
	stacks := make([]*broadcast.Stack, n)
	delivered := 0
	for i := range stacks {
		stacks[i] = broadcast.New(c.Runtime(message.SiteID(i)), broadcast.Config{
			Deliver: func(broadcast.Delivery) { delivered++ },
			Atomic:  mode,
		})
		c.Bind(message.SiteID(i), stackNode{stacks[i]})
	}
	c.Start()
	payload := &message.CausalNull{From: 1}
	ns, allocs, ops = timeOps(budget, 64, func(k int) {
		for i := 0; i < k && err == nil; i++ {
			c.Schedule(0, func() { stacks[1].Broadcast(class, payload) })
			_, err = c.RunUntilIdle()
		}
	})
	if err == nil && int64(delivered) < ops*int64(n) {
		err = fmt.Errorf("%d deliveries for %d broadcasts at %d sites", delivered, ops, n)
	}
	return ns, allocs, ops, err
}

// microSolo is the no-replication ceiling: the atomic-durable configuration
// on one site, closed loop.
func microSolo(res *runResult, p plan, dataRoot string) error {
	def := *findWorkload("atomic-durable")
	def.name, def.sites = "solo", 1
	in, err := generate(&def, 1, 0)
	if err != nil {
		return err
	}
	c, err := setUp(&def, filepath.Join(dataRoot, "solo"), false, 0)
	if err != nil {
		return err
	}
	defer c.close()
	l := newLoad(c, in)
	l.epoch = time.Now()
	l.startClosed()
	time.Sleep(p.ramp)
	n0, t0 := l.satCommits.Load(), time.Now()
	time.Sleep(p.solo)
	n1, t1 := l.satCommits.Load(), time.Now()
	l.stopClosed()
	unfinished := l.drain()
	c.stop()
	if f := l.failed.Load() + unfinished; f > 0 {
		return fmt.Errorf("%d transactions failed", f)
	}
	res.add("core.solo_sat_cps", "1/s", float64(n1-n0)/t1.Sub(t0).Seconds(), n1-n0)
	return nil
}

func microLocks(res *runResult, budget time.Duration) {
	keys := benchKeys(64)
	m := lockmgr.New()
	seq := uint64(0)
	ns, allocs, ops := timeOps(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			seq++
			id := message.TxnID{Site: 0, Seq: seq}
			for j := 0; j < 4; j++ {
				m.Acquire(id, keys[(int(seq)*4+j)%64], lockmgr.Exclusive, false, nil)
			}
			m.ReleaseAll(id)
		}
	})
	res.add("lockmgr.acquire_release_ns", "ns", ns, ops)
	res.add("lockmgr.acquire_release_allocs", "count", allocs, ops)
	m = lockmgr.New()
	ns, _, ops = timeOps(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			seq += 2
			holder := message.TxnID{Site: 0, Seq: seq}
			waiter := message.TxnID{Site: 1, Seq: seq + 1}
			m.Acquire(holder, "hot", lockmgr.Exclusive, false, nil)
			m.Acquire(waiter, "hot", lockmgr.Shared, true, func() {})
			m.ReleaseAll(holder)
			m.ReleaseAll(waiter)
		}
	})
	res.add("lockmgr.contended_ns", "ns", ns, ops)
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func microCommitpipe(res *runResult, budget time.Duration, valueSize int) {
	keys := benchKeys(4096)
	val := make(message.Value, valueSize)
	st := storage.New(storage.NewWAL(discard{}))
	p := commitpipe.New(commitpipe.Config{Store: st, Policy: commitpipe.Policy{MaxBatch: walBatch}})
	seq := uint64(0)
	ns, allocs, ops := timeOps(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			seq++
			k := int(seq*2) % len(keys)
			p.Submit(commitpipe.Txn{
				ID:      message.TxnID{Site: 0, Seq: seq},
				Entries: []commitpipe.Entry{{Writes: []message.KV{{Key: keys[k], Value: val}, {Key: keys[k+1], Value: val}}}},
				Ack:     func(bool) {},
			})
		}
	})
	res.add("commitpipe.submit_ns", "ns", ns, ops)
	res.add("commitpipe.submit_allocs", "count", allocs, ops)
}

func microStorage(res *runResult, budget time.Duration, valueSize int) {
	keys := benchKeys(4096)
	val := make(message.Value, valueSize)
	w := storage.NewWAL(discard{})
	rec := storage.Record{Txn: message.TxnID{Site: 1, Seq: 2}, Writes: []message.KV{{Key: keys[1], Value: val}, {Key: keys[2], Value: val}}}
	ns, allocs, ops := timeOps(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			rec.Index++
			w.Append(rec) //reprolint:allow pipeonly micro-run of the log's append alone, on a discarding writer that cannot fail
		}
	})
	res.add("storage.wal_append_ns", "ns", ns, ops)
	res.add("storage.wal_append_allocs", "count", allocs, ops)

	st := storage.New(nil)
	idx := uint64(0)
	batch := make([]storage.BatchEntry, walBatch)
	ns, _, ops = timeOps(budget, 1, func(n int) {
		for i := 0; i < n; i++ {
			for j := range batch {
				idx++
				k := int(idx*2) % len(keys)
				batch[j] = storage.BatchEntry{Txn: message.TxnID{Site: 0, Seq: idx}, Index: idx,
					Writes: []message.KV{{Key: keys[k], Value: val}, {Key: keys[k+1], Value: val}}}
			}
			if err := st.ApplyBatch(batch); err != nil { //reprolint:allow pipeonly micro-run of the store's batch install alone, on a scratch store
				res.violate("storage micro-run: %v", err)
			}
		}
	})
	res.add("storage.apply_batch_ns_per_write", "ns", ns/float64(2*len(batch)), ops*int64(2*len(batch)))
	var sink int
	ns, _, ops = timeOps(budget, len(keys), func(n int) {
		for i := 0; i < n; i++ {
			r, _ := st.Get(keys[i])
			sink += len(r.Value)
		}
	})
	_ = sink
	res.add("storage.get_ns", "ns", ns, ops)
}
