// Package commitpipe mimics the group-commit layer for nonblock: the
// package is analyzed like any other, its hot path exports no blocking
// fact because it does not block, and the loop-side waits that remain are
// justified one by one.
package commitpipe

import "os"

// Pipeline is a stand-in commit pipeline.
type Pipeline struct {
	f       *os.File
	synced  chan error
	offload func(work, done func()) bool
}

// Submit is the hot path: it hands the write+fsync to another goroutine as
// a method value, which is not a call — nothing here blocks, so no fact. A
// runtime that is closing refuses the job; writing on the spot then is
// justified at the call.
func (p *Pipeline) Submit() {
	if !p.offload(p.writeSync, p.onSynced) {
		p.writeSync() //reprolint:allow nonblock fixture: the runtime is shutting down and took nothing
	}
}

// writeSync is the syncer's half. It blocks, and says so to dependents.
func (p *Pipeline) writeSync() {
	p.synced <- p.f.Sync()
}

// onSynced polls the signal: select with default does not block.
func (p *Pipeline) onSynced() {
	select {
	case <-p.synced:
	default:
	}
}

// Barrier waits for the syncer with a justified suppression; the wait does
// not poison its summary.
func (p *Pipeline) Barrier() {
	<-p.synced //reprolint:allow nonblock fixture: the caller needs the log durable before it returns
}

// Unjustified is what the old package-wide exemption used to hide.
//
// reprolint:looponly
func (p *Pipeline) Unjustified() {
	p.writeSync() // want "Unjustified is loop-bound .reprolint:looponly. but may block: channel send .via commitpipe.Pipeline.writeSync."
}
