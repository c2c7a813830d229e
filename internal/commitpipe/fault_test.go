package commitpipe_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/message"
	"repro/internal/sgraph"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// siteLog is what one site's segmented WAL replays to.
type siteLog struct {
	recs []storage.Record
	last uint64
}

func (l siteLog) txns() map[message.TxnID]bool {
	ids := make(map[message.TxnID]bool, len(l.recs))
	for _, r := range l.recs {
		ids[r.Txn] = true
	}
	return ids
}

// replayLog replays the log under dir, failing the test unless it is a
// clean record prefix.
func replayLog(t *testing.T, dir string) siteLog {
	t.Helper()
	var l siteLog
	err := storage.ReplaySegments(dir, func(r storage.Record) error {
		l.recs = append(l.recs, r)
		if r.Index > l.last {
			l.last = r.Index
		}
		return nil
	})
	if errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("wal %s corrupt: %v", dir, err)
	}
	if err != nil {
		t.Fatalf("replay %s: %v", dir, err)
	}
	return l
}

// TestCrashMidBatchRecoversFsyncedPrefix kills one site mid-run while its
// group-commit batches are in flight and asserts, for each of the paper's
// three protocols, that the crashed site's segmented WAL replays cleanly
// (no corruption), that recovery restores exactly what replay delivers
// (the fsynced prefix — buffered records die with the site), and that the
// durable prefix is consistent with a survivor's log: per key, the crashed
// chain must be a contiguous window of the survivor's, never reordered.
func TestCrashMidBatchRecoversFsyncedPrefix(t *testing.T) {
	const crashed = message.SiteID(2)
	for _, proto := range []string{harness.ProtoReliable, harness.ProtoCausal, harness.ProtoAtomic} {
		t.Run(proto, func(t *testing.T) {
			root := t.TempDir()
			walDir := func(site message.SiteID) string {
				return filepath.Join(root, fmt.Sprintf("site-%d", site))
			}
			var wals []*storage.WAL
			ecfg := core.Config{}
			ecfg.Membership = true
			ecfg.FailureInterval = 50 * time.Millisecond
			ecfg.FailureTimeout = 250 * time.Millisecond
			if proto == harness.ProtoCausal {
				ecfg.CausalHeartbeat = 25 * time.Millisecond
			}
			ecfg.GroupCommit = commitpipe.Policy{MaxBatch: 2}
			res, err := harness.Run(harness.Options{
				Protocol: proto,
				Seed:     42,
				Engine:   ecfg,
				Faults:   []harness.Fault{{At: 400 * time.Millisecond, Crash: crashed}},
				Workload: workload.Spec{
					Sites: 3, Count: 150, Window: 800 * time.Millisecond,
					Keys: 128, ReadsPerTxn: 0, WritesPerTxn: 2, Seed: 7,
				},
				WAL: func(site message.SiteID) *storage.WAL {
					w, werr := storage.OpenSegments(walDir(site), 0)
					if werr != nil {
						t.Fatalf("open wal for site %v: %v", site, werr)
					}
					wals = append(wals, w)
					return w
				},
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, w := range wals {
				if cerr := w.Close(); cerr != nil {
					t.Fatalf("close wal: %v", cerr)
				}
			}
			if res.Committed == 0 {
				t.Fatal("no transactions committed")
			}

			// The crashed site's log replays cleanly: flushed batches are
			// whole, the unflushed tail simply is not there.
			replay := func(site message.SiteID) siteLog { return replayLog(t, walDir(site)) }
			crashedLog := replay(crashed)
			survivorLog := replay(0)
			if len(crashedLog.recs) == 0 {
				t.Fatal("crashed site flushed nothing before dying")
			}
			if len(crashedLog.recs) >= len(survivorLog.recs) {
				t.Fatalf("crashed site lost no tail: %d records vs survivor's %d",
					len(crashedLog.recs), len(survivorLog.recs))
			}

			// Every commit durable at the crashed site is durable at the
			// survivor too (commits install at every site in R, C, and A).
			durable := survivorLog.txns()
			for _, r := range crashedLog.recs {
				if !durable[r.Txn] {
					t.Fatalf("txn %v durable only at the crashed site", r.Txn)
				}
			}

			// Per-key apply orders across the crashed prefix and the
			// survivor's full log must be mutually consistent.
			rec := sgraph.NewRecorder()
			for site, c := range map[message.SiteID]siteLog{crashed: crashedLog, 0: survivorLog} {
				for _, r := range c.recs {
					for _, w := range r.Writes {
						rec.RecordApply(site, w.Key, r.Txn)
					}
				}
			}
			if _, err := rec.VersionOrders(); err != nil {
				t.Fatalf("crashed prefix diverges from survivor: %v", err)
			}

			// Recovery restores exactly the replayed prefix.
			st, w, _, err := checkpoint.Recover(walDir(crashed), 0)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer w.Close()
			if st.Applied() != crashedLog.last {
				t.Fatalf("recovered applied=%d, want last durable index %d", st.Applied(), crashedLog.last)
			}
			want := make(map[message.Key]storage.Record)
			for _, r := range crashedLog.recs {
				for _, kv := range r.Writes {
					prev := want[kv.Key]
					if r.Index >= prev.Index {
						want[kv.Key] = storage.Record{Index: r.Index, Txn: r.Txn, Writes: []message.KV{kv}}
					}
				}
			}
			if st.Len() != len(want) {
				t.Fatalf("recovered %d keys, want %d", st.Len(), len(want))
			}
			for key, wr := range want {
				got, ok := st.Get(key)
				if !ok || got.Index != wr.Index || got.Writer != wr.Txn ||
					string(got.Value) != string(wr.Writes[0].Value) {
					t.Fatalf("key %q recovered as %+v, want writer %v index %d value %q",
						key, got, wr.Txn, wr.Index, wr.Writes[0].Value)
				}
			}
		})
	}
}

// TestFsyncFailureMidRunAcksAbort makes one site's WAL.Sync start failing
// mid-run under load, for each of the paper's three protocols. True always
// means durably committed: no client of that site hears "committed" for a
// transaction outside the prefix the site really fsynced, every transaction
// of its own that the cluster decided to commit but whose batch failed hears
// an abort instead, the survivors and one-copy serializability are
// unaffected, and the failed site's log still replays to a clean prefix.
func TestFsyncFailureMidRunAcksAbort(t *testing.T) {
	const failing = message.SiteID(2)
	const healthySyncs = 6
	for _, proto := range []string{harness.ProtoReliable, harness.ProtoCausal, harness.ProtoAtomic} {
		t.Run(proto, func(t *testing.T) {
			root := t.TempDir()
			walDir := func(site message.SiteID) string {
				return filepath.Join(root, fmt.Sprintf("site-%d", site))
			}
			wals := make(map[message.SiteID]*storage.WAL)
			syncs, fsynced := 0, int64(0) // of the failing site: sync calls, bytes under the last good one
			ecfg := core.Config{GroupCommit: commitpipe.Policy{MaxBatch: 2}}
			if proto == harness.ProtoCausal {
				ecfg.CausalHeartbeat = 25 * time.Millisecond
			}
			res, err := harness.Run(harness.Options{
				Protocol: proto,
				Seed:     42,
				Engine:   ecfg,
				Check:    true,
				TraceCap: 1 << 14,
				Workload: workload.Spec{
					Sites: 3, Count: 150, Window: 800 * time.Millisecond,
					Keys: 128, ReadsPerTxn: 0, WritesPerTxn: 2, Seed: 7,
				},
				WAL: func(site message.SiteID) *storage.WAL {
					w, werr := storage.OpenSegments(walDir(site), 0)
					if werr != nil {
						t.Fatalf("open wal for site %v: %v", site, werr)
					}
					wals[site] = w
					if site == failing {
						sync := w.Sync
						w.Sync = func() error {
							if syncs++; syncs > healthySyncs {
								return errors.New("injected: fsync failed")
							}
							if err := sync(); err != nil {
								return err
							}
							fsynced = w.AppendedBytes()
							return nil
						}
					}
					return w
				},
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for site, w := range wals {
				// The failing site's Close flushes its open batch into the
				// same failing device.
				if cerr := w.Close(); cerr != nil && site != failing {
					t.Fatalf("close wal of site %v: %v", site, cerr)
				}
			}
			if res.CheckErr != nil {
				t.Fatalf("1SR / replica consistency: %v", res.CheckErr)
			}
			if res.Unfinished != 0 {
				t.Fatalf("%d transactions never finished", res.Unfinished)
			}
			if syncs <= healthySyncs {
				t.Fatalf("the device never failed: %d syncs", syncs)
			}

			// What the failing site really made durable: the records under
			// its last good fsync. The file holds more (batches written but
			// never synced), and all of it is whole records.
			durable := make(map[message.TxnID]bool)
			segs, err := storage.SegmentFiles(walDir(failing))
			if err != nil || len(segs) != 1 {
				t.Fatalf("segments of the failing site: %v, %v", segs, err)
			}
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := storage.Replay(bytes.NewReader(data[:fsynced]), func(r storage.Record) error {
				durable[r.Txn] = true
				return nil
			}); err != nil {
				t.Fatalf("fsynced prefix: %v", err)
			}
			if written := replayLog(t, walDir(failing)); len(written.recs) < len(durable) {
				t.Fatalf("log replays to %d records, fewer than the %d fsynced", len(written.recs), len(durable))
			}

			// What the failing site's clients heard.
			heard := make(map[message.TxnID]bool) // true: committed
			for _, s := range res.Tracers[failing].Spans() {
				if s.Kind == trace.KindOutcome {
					heard[s.Trace] = s.Extra == 1
				}
			}
			for id, committed := range heard {
				if committed && !durable[id] {
					t.Fatalf("client of site %v heard committed for %v, which its site never fsynced", failing, id)
				}
			}
			// Transactions of the failing site that the cluster committed
			// (a survivor logged them) but whose batch failed at home.
			survivors := replayLog(t, walDir(0)).txns()
			lost := 0
			for id := range survivors {
				if id.Site != failing || durable[id] {
					continue
				}
				lost++
				if committed, finished := heard[id]; !finished || committed {
					t.Fatalf("%v: batch failed at home, client heard finished=%v committed=%v", id, finished, committed)
				}
			}
			if lost == 0 {
				t.Fatal("no commit of the failing site was caught by the failure: the case tested nothing")
			}

			// The survivors are unaffected: both logged the same commits.
			other := replayLog(t, walDir(1)).txns()
			if len(other) != len(survivors) {
				t.Fatalf("survivors logged %d and %d commits", len(survivors), len(other))
			}
			for id := range survivors {
				if !other[id] {
					t.Fatalf("%v durable at site 0 only", id)
				}
			}
		})
	}
}
