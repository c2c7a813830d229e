package livenet

import "sync"

// Off-loop work. The event loop must not wait for a disk, so slow work —
// the commit pipeline's write+fsync — is handed to one syncer goroutine per
// host, and what must happen back on the loop once it finishes (firing the
// acknowledgements) to a second goroutine, the poster:
//
//	loop:    Offload(work, done)  — queue, return at once
//	syncer:  work()               — FIFO, one job at a time, never takes mu
//	poster:  mu.Lock; done() for every finished job; mu.Unlock
//
// One syncer per host, not per log: a site holding several replication
// groups runs their fsyncs back to back, not against each other. The syncer
// never waits for the event loop — it marks the job finished and goes on to
// the next — so a busy loop delays acknowledgements, not the next group's
// fsync. Lock order: Host.mu before offload.mu.
type offload struct {
	mu      sync.Mutex
	work    *sync.Cond   // signals the syncer: a job was queued, or closing
	jobs    []offloadJob // FIFO: jobs[head:] are waiting
	head    int
	ready   []func()      // done callbacks whose work has returned
	wake    chan struct{} // signals the poster; one token covers all of ready
	started bool
	closing bool
}

type offloadJob struct{ work, done func() }

func newOffload() *offload {
	o := &offload{wake: make(chan struct{}, 1)}
	o.work = sync.NewCond(&o.mu)
	return o
}

// Offload queues work for the host's syncer goroutine, which runs queued
// jobs one at a time in the order they were queued, and done for the event
// loop once work has returned. It never blocks. It reports false when the
// host is closing: nothing was queued and the caller does the work itself.
// Of the jobs accepted before Close every work runs; a done that has not
// entered the loop by then is dropped, like any other event of a closed
// host. Safe from any goroutine, the event loop included.
func (h *Host) Offload(work, done func()) bool {
	o := h.off
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closing {
		return false
	}
	if !o.started {
		o.started = true
		h.wg.Add(2)
		go h.syncLoop()
		go h.postLoop()
	}
	o.jobs = append(o.jobs, offloadJob{work, done})
	o.work.Signal()
	return true
}

// syncLoop is the syncer: it runs every queued job, in order, and exits
// once the host is closing and the queue is empty.
func (h *Host) syncLoop() {
	defer h.wg.Done()
	o := h.off
	for {
		o.mu.Lock()
		for o.head == len(o.jobs) && !o.closing {
			o.work.Wait()
		}
		if o.head == len(o.jobs) {
			o.mu.Unlock()
			return
		}
		job := o.jobs[o.head]
		o.jobs[o.head] = offloadJob{}
		if o.head++; o.head == len(o.jobs) {
			o.jobs, o.head = o.jobs[:0], 0
		}
		o.mu.Unlock()

		job.work()

		o.mu.Lock()
		o.ready = append(o.ready, job.done)
		o.mu.Unlock()
		select {
		case o.wake <- struct{}{}:
		default: // a token is already waiting; the poster will take this one too
		}
	}
}

// postLoop is the poster: it enters the event loop once per wake-up and
// runs every completion that is ready by the time it holds the loop.
func (h *Host) postLoop() {
	defer h.wg.Done()
	o := h.off
	var batch []func()
	for {
		select {
		case <-h.stop:
			return
		case <-o.wake:
		}
		h.mu.Lock()
		o.mu.Lock()
		batch, o.ready = o.ready, batch[:0]
		o.mu.Unlock()
		if !h.closed && len(batch) > 0 {
			h.posts++
			for _, done := range batch {
				done()
			}
		}
		h.mu.Unlock()
		clear(batch)
	}
}

// close lets the syncer finish what it accepted and exit; Host.Close waits
// for it through wg.
func (o *offload) close() {
	o.mu.Lock()
	o.closing = true
	o.work.Broadcast()
	o.mu.Unlock()
}
