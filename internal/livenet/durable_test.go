package livenet

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/core"
	"repro/internal/message"
	"repro/internal/storage"
)

// TestTCPDurableAcksSurviveAbruptClose is the in-tree twin of the
// benchmark's recover-from-fsynced-bytes check. Three protocol-A sites
// over loopback TCP, each with a segmented WAL, group commit through the
// host's syncer and a checkpointer that runs under load (so Barrier meets
// batches in flight and truncation meets a rotating log), take a closed
// loop of commits; the hosts are then closed mid-load without flushing a
// pipeline. What is on disk is exactly what was fsynced, and every commit a
// home site acknowledged must be in the state checkpoint.Recover rebuilds
// from that site's directory.
func TestTCPDurableAcksSurviveAbruptClose(t *testing.T) {
	const (
		sites    = 3
		window   = 16 // outstanding transactions per site
		segBytes = 16 << 10
		minAcks  = 600 // per site, before the plug is pulled
	)
	root := t.TempDir()
	listeners := make([]net.Listener, sites)
	addrs := make(map[message.SiteID]string, sites)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[message.SiteID(i)] = ln.Addr().String()
	}
	type siteState struct {
		host   *Host
		engine core.Engine
		dir    string
		wal    *storage.WAL
		// Owned by the site's event loop until its host is closed.
		issued int
		acked  []message.Key
	}
	ss := make([]*siteState, sites)
	for i := range ss {
		dir := filepath.Join(root, fmt.Sprintf("s%d", i))
		st, w, _, err := checkpoint.Recover(dir, segBytes)
		if err != nil {
			t.Fatal(err)
		}
		h, err := New(Config{ID: message.SiteID(i), Addrs: addrs, Listener: listeners[i], SendQueue: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		e := core.NewAtomic(h, core.Config{
			WAL:          w,
			InitialStore: st,
			GroupCommit:  commitpipe.Policy{MaxBatch: 2},
			Checkpoint:   checkpoint.Policy{Dir: dir, Retain: 2, Interval: 40 * time.Millisecond},
		})
		h.Bind(e)
		ss[i] = &siteState{host: h, engine: e, dir: dir, wal: w}
	}
	for _, s := range ss {
		if err := s.host.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, s := range ss {
			s.host.Close()
			s.wal.Close() // the directory is removed next
		}
	}()

	// One driver per site keeps window transactions outstanding; each
	// acknowledgement (a callback on the loop) asks for the next.
	stop := make(chan struct{})
	var drivers sync.WaitGroup
	enough := make(chan struct{}, sites)
	for i, s := range ss {
		i, s := i, s
		next := make(chan struct{}, window)
		for n := 0; n < window; n++ {
			next <- struct{}{}
		}
		issue := func() {
			s.issued++
			key := message.Key(fmt.Sprintf("s%d-%d", i, s.issued))
			tx := s.engine.Begin(false)
			if err := s.engine.Write(tx, key, message.Value(key)); err != nil {
				t.Errorf("site %d write: %v", i, err)
				return
			}
			s.engine.Commit(tx, func(o core.Outcome, _ core.AbortReason) {
				if o == core.Committed {
					s.acked = append(s.acked, key)
					if len(s.acked) == minAcks {
						enough <- struct{}{}
					}
				}
				select {
				case next <- struct{}{}:
				default:
				}
			})
		}
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			for {
				select {
				case <-stop:
					return
				case <-next:
					s.host.Do(issue)
				}
			}
		}()
	}
	for range ss {
		select {
		case <-enough:
		case <-time.After(60 * time.Second):
			t.Fatal("load did not reach the acknowledgement floor")
		}
	}

	// Pull the plug under load: no Flush, hosts closed side by side.
	var closing sync.WaitGroup
	for _, s := range ss {
		closing.Add(1)
		go func(h *Host) {
			defer closing.Done()
			h.Close()
		}(s.host)
	}
	closing.Wait()
	close(stop)
	drivers.Wait()

	checkpoints := 0
	for i, s := range ss {
		if len(s.acked) < minAcks {
			t.Fatalf("site %d acknowledged %d commits, want at least %d", i, len(s.acked), minAcks)
		}
		if ck := s.engine.Checkpointer(); ck != nil {
			checkpoints += int(ck.Stats().Checkpoints)
		}
		st, w, _, err := checkpoint.Recover(s.dir, segBytes)
		if err != nil {
			t.Fatalf("site %d: recover: %v", i, err)
		}
		w.Close() // reopened by Recover; nothing was appended
		missing := 0
		for _, key := range s.acked {
			if rec, ok := st.Get(key); !ok || string(rec.Value) != string(key) {
				missing++
			}
		}
		if missing > 0 {
			t.Errorf("site %d: %d of %d acknowledged commits are not in the recovered state", i, missing, len(s.acked))
		}
	}
	if checkpoints == 0 {
		t.Error("no checkpoint ran under load: Barrier never met the syncer")
	}
}
