package main

import (
	"bytes"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/message"
	"repro/internal/storage"
)

// quiesceDeadline bounds the wait for remote applies to catch up with the
// last acknowledged commit before replicas are compared.
const quiesceDeadline = 5 * time.Second

// applied reads every (group, member) applied index on the members' loops.
func (c *cluster) applied() [][]uint64 {
	out := make([][]uint64, c.groupCount())
	for g := range out {
		for _, s := range c.members(message.GroupID(g)) {
			var idx uint64
			s.host.Do(func() { idx = s.store(message.GroupID(g)).Applied() })
			out[g] = append(out[g], idx)
		}
	}
	return out
}

// quiesce waits until every replica of every group reports the same applied
// index on two consecutive polls.
func (c *cluster) quiesce() bool {
	deadline := time.Now().Add(quiesceDeadline)
	var last [][]uint64
	for time.Now().Before(deadline) {
		cur := c.applied()
		level := true
		for g := range cur {
			for i := range cur[g] {
				level = level && cur[g][i] == cur[g][0] && last != nil && last[g][i] == cur[g][i]
			}
		}
		if level {
			return true
		}
		last = cur
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// checkLive runs the checks that need the cluster up: after the drain,
// every replica of a group holds the same latest version of every key, no
// message was dropped, and no cross-shard prepare is left orphaned.
func checkLive(c *cluster, res *runResult) {
	if !c.quiesce() {
		res.violate("replicas did not level within %v of the drain: applied %v", quiesceDeadline, c.applied())
	}
	keys := c.keysByGroup()
	for g := range keys {
		gid := message.GroupID(g)
		var ref []message.VersionRec
		for _, s := range c.members(gid) {
			got := make([]message.VersionRec, len(keys[g]))
			s.host.Do(func() {
				st := s.store(gid)
				for i, k := range keys[g] {
					got[i], _ = st.Get(k)
				}
			})
			if ref == nil {
				ref = got
				continue
			}
			diverged := 0
			for i := range got {
				// R's commit index is per site; writer and value are global.
				if got[i].Writer != ref[i].Writer || !bytes.Equal(got[i].Value, ref[i].Value) {
					diverged++
				}
			}
			if diverged > 0 {
				res.violate("group %v: site %v diverges from site %v on %d of %d keys", gid, s.id, c.members(gid)[0].id, diverged, len(got))
			}
		}
	}
	var dropped int64
	orphans := 0
	for _, s := range c.sites {
		_, _, d := s.host.Counters()
		dropped += d
		if s.sharded != nil {
			s.host.Do(func() { orphans += s.sharded.OrphanedPrepares() })
		}
	}
	if dropped > 0 {
		res.violate("livenet dropped %d messages", dropped)
	}
	if orphans > 0 {
		res.violate("%d orphaned cross-shard prepares after the drain", orphans)
	}
}

// recovery is what restarting site 1 from its disk cost, for the storage
// and checkpoint layers' restart metrics.
type recovery struct {
	recover       time.Duration // checkpoint.Recover of the site's first group
	replay        time.Duration // storage.ReplaySegments of the same log
	replayRecords int
}

// checkDurable restarts every site's storage from disk, in place, and looks
// up every commit the generator saw acknowledged at that site. The cluster
// was stopped without flushing its commit pipelines and the logs are still
// open with their unflushed tails in memory, so the files hold exactly the
// bytes that were fsynced: an acknowledged commit missing here is lost.
func checkDurable(c *cluster, l *load, res *runResult) recovery {
	var rc recovery
	if !c.def.durable {
		return rc
	}
	for _, s := range c.sites {
		for gi, g := range s.groups() {
			dir := s.groupDir(g)
			if s.id == 1 && gi == 0 {
				start := time.Now()
				err := storage.ReplaySegments(dir, func(storage.Record) error { rc.replayRecords++; return nil })
				rc.replay = time.Since(start)
				if err != nil {
					res.violate("site %v group %v: replay: %v", s.id, g, err)
				}
			}
			start := time.Now()
			st, w, _, err := checkpoint.Recover(dir, walSegBytes)
			if s.id == 1 && gi == 0 {
				rc.recover = time.Since(start)
			}
			if err != nil {
				res.violate("site %v group %v: recover: %v", s.id, g, err)
				continue
			}
			w.Close() // opened only because Recover reopens the log; nothing was appended
			missing, checked := 0, 0
			for _, a := range l.acks[s.id] {
				for _, wr := range a.txn.Writes {
					if c.groupOf(wr.Key) != g {
						continue
					}
					checked++
					if !holds(st, wr.Key, a.id) {
						missing++
					}
				}
			}
			if missing > 0 {
				res.violate("site %v group %v: %d of %d acknowledged writes are not in the recovered state", s.id, g, missing, checked)
			}
		}
	}
	return rc
}

// holds reports whether key's recovered version chain contains writer, or
// is full: a chain at the store's retention cap may have dropped it.
func holds(st *storage.Store, key message.Key, writer message.TxnID) bool {
	chain := st.VersionOrder(key)
	for _, w := range chain {
		if w == writer {
			return true
		}
	}
	return st.MaxVersions > 0 && len(chain) >= st.MaxVersions
}
