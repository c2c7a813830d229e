package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/message"
	"repro/internal/workload"
)

// maxTries bounds how often an aborted transaction is resubmitted before it
// counts as failed. Certification and write-conflict aborts are the
// protocols' normal answer to a conflict and a client retries them; the
// latency of a retried transaction still runs from when it was first due.
const maxTries = 40

// retryDelay spaces resubmissions out: the lock or undecided prepare that
// refused a transaction is usually still there a few microseconds later,
// and a replica stalled in a checkpoint can keep it there for a while.
func retryDelay(tries int) time.Duration {
	return min(time.Millisecond<<min(tries, 6), 64*time.Millisecond)
}

// drainDeadline is how long after the last arrival the run waits for
// outstanding transactions before calling them unfinished.
const drainDeadline = 10 * time.Second

// submit drives one generated transaction through the engine's client API,
// the way livenet.ExecuteTxn does: reads first, then writes, then commit.
// It must be called on the engine's event loop; done runs there too,
// exactly once. The engine receives nothing but what t holds.
func submit(e core.Engine, t *workload.Txn, done func(*core.Tx, core.Outcome, core.AbortReason, error)) {
	tx := e.Begin(t.ReadOnly)
	fail := func(err error) {
		e.Abort(tx)
		if o, r := tx.Outcome(); o != 0 {
			done(tx, o, r, nil) // the engine aborted it first; the error is the echo
			return
		}
		done(tx, 0, 0, err)
	}
	var step func(i int)
	step = func(i int) {
		if i < len(t.Reads) {
			e.Read(tx, t.Reads[i], func(_ message.Value, err error) {
				if err != nil {
					fail(fmt.Errorf("read %q: %w", t.Reads[i], err))
					return
				}
				step(i + 1)
			})
			return
		}
		for _, w := range t.Writes {
			if err := e.Write(tx, w.Key, w.Value); err != nil {
				fail(fmt.Errorf("write %q: %w", w.Key, err))
				return
			}
		}
		e.Commit(tx, func(o core.Outcome, r core.AbortReason) { done(tx, o, r, nil) })
	}
	step(0)
}

// acked is one update commit the generator saw acknowledged at its home
// site; the durability check looks each one up in the recovered state.
type acked struct {
	txn *workload.Txn
	id  message.TxnID
}

// satSlot is one position of the closed loop's window: the transaction it
// currently carries. A slot is handed from the completing site's loop to
// the next home site's issuer through the work channel, never shared.
type satSlot struct {
	seq   int64
	tries int
}

// load is the generator: one scheduler goroutine (the caller of runOpen),
// one mostly-blocked issuer goroutine per site, and completion callbacks on
// the sites' event loops. No client threads or connections.
type load struct {
	c     *cluster
	in    *inputs
	epoch time.Time // bench clock zero; At, due and done are offsets from it

	// Per open-loop transaction, written by exactly one goroutine at a time
	// (scheduler, then the home site's issuer, then its loop).
	issued []time.Duration
	done   []time.Duration // 0 = unfinished or failed
	tries  []uint8
	ids    []message.TxnID

	slots   []satSlot
	satNext atomic.Int64
	satStop atomic.Bool
	// Closed-loop completions, counted atomically so the timing goroutine
	// can read them at the window's edges.
	satCommits atomic.Int64

	outstanding atomic.Int64
	failed      atomic.Int64
	firstErr    atomic.Pointer[string]

	// Per site, owned by its event loop; read after the cluster stopped.
	acks [][]acked
}

func newLoad(c *cluster, in *inputs) *load {
	l := &load{
		c:      c,
		in:     in,
		issued: make([]time.Duration, len(in.open)),
		done:   make([]time.Duration, len(in.open)),
		tries:  make([]uint8, len(in.open)),
		ids:    make([]message.TxnID, len(in.open)),
		slots:  make([]satSlot, c.def.window),
		acks:   make([][]acked, len(c.sites)),
	}
	for _, s := range c.sites {
		c.issuers.Add(1)
		go func() {
			defer c.issuers.Done()
			batch := make([]int32, 0, issueBatch)
			for {
				select {
				case job := <-s.work:
					// Everything already queued rides the same loop entry.
					batch = append(batch[:0], job)
				drain:
					for len(batch) < issueBatch {
						select {
						case job := <-s.work:
							batch = append(batch, job)
						default:
							break drain
						}
					}
					l.issue(s, batch)
				case <-c.done:
					return
				}
			}
		}()
	}
	return l
}

func (l *load) now() time.Duration { return time.Since(l.epoch) }

// txn resolves a job number: open-loop jobs index in.open, the rest name a
// window slot.
func (l *load) txn(job int32) *workload.Txn {
	if n := int32(len(l.in.open)); job >= n {
		return &l.in.sat[l.slots[job-n].seq%int64(len(l.in.sat))]
	}
	return &l.in.open[job]
}

// enqueue hands a job to its home site's issuer without ever blocking: it
// is called from event loops and retry timers.
func (l *load) enqueue(job int32) {
	s := l.c.sites[l.txn(job).Site]
	select {
	case s.work <- job:
	default:
		l.fail(job, "issuer queue full")
	}
}

func (l *load) fail(job int32, why string) {
	l.failed.Add(1)
	l.firstErr.CompareAndSwap(nil, &why)
	l.retire(job)
}

// retire ends a job's life: an open-loop transaction is simply no longer
// outstanding, a closed-loop slot takes the next transaction of the list.
func (l *load) retire(job int32) {
	n := int32(len(l.in.open))
	if job < n || l.satStop.Load() {
		l.outstanding.Add(-1)
		return
	}
	slot := &l.slots[job-n]
	slot.seq, slot.tries = l.satNext.Add(1)-1, 0
	l.enqueue(job)
}

// issueBatch bounds how many queued jobs one loop entry submits. At the
// open loop's rates the queue holds one job at a time; in the closed loop
// it keeps the cost of entering the loop from becoming what saturation
// measures when transactions are as cheap as a local read.
const issueBatch = 32

func (l *load) issue(s *site, jobs []int32) {
	for _, job := range jobs {
		if int(job) < len(l.in.open) && l.tries[job] == 0 {
			l.issued[job] = l.now()
		}
	}
	s.do(func() {
		for _, job := range jobs {
			t := l.txn(job)
			submit(s.engine, t, func(tx *core.Tx, o core.Outcome, _ core.AbortReason, err error) {
				l.finish(s, job, t, tx, o, err)
			})
		}
	})
}

// finish runs on the home site's event loop.
func (l *load) finish(s *site, job int32, t *workload.Txn, tx *core.Tx, o core.Outcome, err error) {
	open := int(job) < len(l.in.open)
	switch {
	case err != nil:
		l.fail(job, err.Error())
	case o == core.Committed:
		if open {
			l.done[job] = l.now()
			l.ids[job] = tx.ID
		} else {
			l.satCommits.Add(1)
		}
		if !t.ReadOnly {
			l.acks[s.id] = append(l.acks[s.id], acked{txn: t, id: tx.ID})
		}
		l.retire(job)
	default:
		var tries int
		if open {
			l.tries[job]++
			tries = int(l.tries[job])
		} else {
			slot := &l.slots[int(job)-len(l.in.open)]
			slot.tries++
			tries = slot.tries
		}
		if tries >= maxTries {
			l.fail(job, "aborted on every try")
			return
		}
		time.AfterFunc(retryDelay(tries-1), func() { l.enqueue(job) })
	}
}

// runOpen is the open loop: every transaction of in.open is handed to its
// home site when it falls due, whatever the cluster's speed. Sleeping overshoots by tens of microseconds; latencies
// run from the due time, so the overshoot is inside them, and it is
// reported as the generator's lag.
func (l *load) runOpen() {
	for i := range l.in.open {
		due := l.in.open[i].At
		if wait := due - l.now(); wait > 0 {
			time.Sleep(wait)
		}
		l.outstanding.Add(1)
		l.enqueue(int32(i))
	}
}

// startOpen sets the bench clock's zero and runs the open loop on its own
// goroutine, the scheduler; the channel closes after the last arrival.
func (l *load) startOpen() <-chan struct{} {
	l.epoch = time.Now()
	sched := make(chan struct{})
	go func() {
		defer close(sched)
		l.runOpen()
	}()
	return sched
}

// failure totals the transactions that never committed, unfinished ones
// included, and names the first reason seen.
func (l *load) failure(unfinished int64) (int64, string) {
	why := "unfinished at the drain deadline"
	if p := l.firstErr.Load(); p != nil {
		why = *p
	}
	return l.failed.Load() + unfinished, why
}

// startClosed fills the closed loop's window; from then on each completion
// issues the next transaction until stopClosed.
func (l *load) startClosed() {
	l.satStop.Store(false)
	n := int32(len(l.in.open))
	for k := range l.slots {
		l.slots[k] = satSlot{seq: l.satNext.Add(1) - 1}
		l.outstanding.Add(1)
		l.enqueue(n + int32(k))
	}
}

func (l *load) stopClosed() { l.satStop.Store(true) }

// drain waits until nothing is outstanding; it reports how many
// transactions were still unfinished at the deadline.
func (l *load) drain() int64 {
	deadline := time.Now().Add(drainDeadline)
	for l.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return l.outstanding.Load()
}

// preload writes every key once, preloadBatch keys per transaction, so
// reads find values and the stores' key count is steady from the first
// measured second. Keys are grouped by replication group and written from
// a member site. It is set-up, not load: it goes through the same client
// API but is not part of the generated inputs.
func preload(c *cluster) error {
	val := make(message.Value, c.def.valueSize)
	for i := range val {
		val[i] = byte('A' + i%26)
	}
	var txns []workload.Txn
	for g, keys := range c.keysByGroup() {
		members := c.members(message.GroupID(g))
		for at := 0; at < len(keys); at += preloadBatch {
			end := min(at+preloadBatch, len(keys))
			t := workload.Txn{Site: members[len(txns)%len(members)].id}
			for _, k := range keys[at:end] {
				t.Writes = append(t.Writes, message.KV{Key: k, Value: val})
			}
			txns = append(txns, t)
		}
	}
	// Thirty-two at a time: protocol A broadcasts each write as it is
	// staged, and 32 x 128 envelopes per peer fit the send queue several
	// times over, while the group commit gets whole batches to fsync
	// instead of one timer-driven flush per transaction.
	const inFlight = 32
	sem := make(chan struct{}, inFlight)
	errs := make(chan error, len(txns))
	for i := range txns {
		t := &txns[i]
		s := c.sites[t.Site]
		sem <- struct{}{}
		s.host.Do(func() {
			submit(s.engine, t, func(_ *core.Tx, o core.Outcome, r core.AbortReason, err error) {
				if err == nil && o != core.Committed {
					err = fmt.Errorf("preload aborted: %v", r)
				}
				errs <- err
				<-sem
			})
		})
	}
	for range txns {
		select {
		case err := <-errs:
			if err != nil {
				return err
			}
		case <-time.After(drainDeadline):
			return fmt.Errorf("preload timed out")
		}
	}
	return nil
}
