package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/sgraph"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/storage"
)

// writeWAL materializes a log directory of the given records.
func writeWAL(t *testing.T, dir string, recs []storage.Record) {
	t.Helper()
	w, err := storage.OpenSegments(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func txn(site, seq int) message.TxnID {
	return message.TxnID{Site: message.SiteID(site), Seq: uint64(seq)}
}

func rec(idx uint64, id message.TxnID, kvs ...string) storage.Record {
	r := storage.Record{Index: idx, Txn: id}
	for i := 0; i+1 < len(kvs); i += 2 {
		r.Writes = append(r.Writes, message.KV{Key: message.Key(kvs[i]), Value: message.Value(kvs[i+1])})
	}
	return r
}

// buildWalcheck compiles the tool once per test run.
func buildWalcheck(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "walcheck")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func TestWalcheckConsistentAndDivergent(t *testing.T) {
	bin := buildWalcheck(t)
	dir := t.TempDir()

	// Consistent pair: site 1 lags (prefix).
	a := filepath.Join(dir, "a")
	b := filepath.Join(dir, "b")
	writeWAL(t, a, []storage.Record{
		rec(1, txn(0, 1), "x", "1"),
		rec(2, txn(1, 1), "x", "2", "y", "1"),
	})
	writeWAL(t, b, []storage.Record{
		rec(1, txn(0, 1), "x", "1"),
	})
	out, err := exec.Command(bin, "-v", a, b).CombinedOutput()
	if err != nil {
		t.Fatalf("consistent logs rejected: %v\n%s", err, out)
	}

	// Divergent pair: opposite apply orders for x.
	c := filepath.Join(dir, "c")
	d := filepath.Join(dir, "d")
	writeWAL(t, c, []storage.Record{
		rec(1, txn(0, 1), "x", "1"),
		rec(2, txn(1, 1), "x", "2"),
	})
	writeWAL(t, d, []storage.Record{
		rec(1, txn(1, 1), "x", "2"),
		rec(2, txn(0, 1), "x", "1"),
	})
	out, err = exec.Command(bin, c, d).CombinedOutput()
	if err == nil {
		t.Fatalf("divergent logs accepted:\n%s", out)
	}

	// Unreadable path.
	if _, err := exec.Command(bin, filepath.Join(dir, "missing")).CombinedOutput(); err == nil {
		t.Fatal("missing log accepted")
	}
}

// TestWalcheckRefusesSingleFileLog: a log that is one plain file (the
// layout before logs were directories) is refused with the command that
// migrates it, instead of being audited as an empty directory.
func TestWalcheckRefusesSingleFileLog(t *testing.T) {
	bin := buildWalcheck(t)
	path := filepath.Join(t.TempDir(), "site0.wal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, path).CombinedOutput()
	if err == nil {
		t.Fatalf("single-file log accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "mkdir "+path+".d && mv "+path+" "+path+".d/wal-000001.seg") {
		t.Fatalf("migration command not printed:\n%s", out)
	}
}

func TestWalcheckSegmentedDirs(t *testing.T) {
	bin := buildWalcheck(t)
	dir := t.TempDir()

	// Two sites, segmented logs, site 1 lagging by one batch.
	writeSegs := func(name string, recs []storage.Record) string {
		segDir := filepath.Join(dir, name)
		w, err := storage.OpenSegments(segDir, 64) // tiny: force rotation
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return segDir
	}
	full := []storage.Record{
		rec(1, txn(0, 1), "x", "1", "pad", "padpadpadpadpad"),
		rec(2, txn(1, 1), "x", "2", "pad", "padpadpadpadpad"),
		rec(3, txn(0, 2), "y", "1", "pad", "padpadpadpadpad"),
	}
	a := writeSegs("a", full)
	b := writeSegs("b", full[:2])
	if files, err := storage.SegmentFiles(a); err != nil || len(files) < 2 {
		t.Fatalf("rotation did not happen: %v %v", files, err)
	}
	out, err := exec.Command(bin, a, b).CombinedOutput()
	if err != nil {
		t.Fatalf("consistent segmented logs rejected: %v\n%s", err, out)
	}
}

func TestWalcheckTornTailWithinBatch(t *testing.T) {
	bin := buildWalcheck(t)
	dir := t.TempDir()

	// A grouped batch torn mid-record at the tail: the valid prefix must be
	// recovered and cross-checked cleanly (exit 0, no corruption verdict).
	segDir := filepath.Join(dir, "torn")
	w, err := storage.OpenSegments(segDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.SetGrouped(true)
	batch := []storage.Record{
		rec(1, txn(0, 1), "x", "1"),
		rec(2, txn(1, 1), "x", "2"),
		rec(3, txn(0, 2), "y", "1"),
	}
	for _, r := range batch {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := storage.SegmentFiles(segDir)
	if err != nil || len(files) != 1 {
		t.Fatalf("segments: %v %v", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	// A healthy peer holding the full prefix: torn site may lag, not diverge.
	peer := filepath.Join(dir, "peer")
	writeWAL(t, peer, batch[:2])
	out, err := exec.Command(bin, segDir, peer).CombinedOutput()
	if err != nil {
		t.Fatalf("torn tail rejected: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "2 commits") {
		t.Fatalf("torn site did not recover the 2-record prefix:\n%s", out)
	}
}

func TestWalcheckCheckpointedDir(t *testing.T) {
	bin := buildWalcheck(t)
	dir := t.TempDir()

	// Site 0: a checkpointed, truncated directory — the checkpoint covers
	// indexes 1-2 and the WAL holds only index 3. Site 1: a plain full log.
	segDir := filepath.Join(dir, "ckpt")
	w, err := storage.OpenSegments(segDir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(3, txn(0, 2), "y", "1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ck := &checkpoint.Checkpoint{
		Applied: 2,
		Entries: []message.SnapshotEntry{{
			Key: "x",
			Versions: []message.VersionRec{
				{Index: 1, Writer: txn(0, 1), Value: message.Value("1")},
				{Index: 2, Writer: txn(1, 1), Value: message.Value("2")},
			},
		}},
	}
	if _, _, err := checkpoint.Write(segDir, ck); err != nil {
		t.Fatal(err)
	}
	// An orphaned temp file must be reported without failing the check.
	tmp := filepath.Join(segDir, "ckpt-00000000000000ff.ckpt.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	peer := filepath.Join(dir, "peer")
	writeWAL(t, peer, []storage.Record{
		rec(1, txn(0, 1), "x", "1"),
		rec(2, txn(1, 1), "x", "2"),
		rec(3, txn(0, 2), "y", "1"),
	})
	out, err := exec.Command(bin, segDir, peer).CombinedOutput()
	if err != nil {
		t.Fatalf("checkpointed dir rejected: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "checkpoint at index 2 (1 keys)") {
		t.Fatalf("checkpoint not surfaced in the summary:\n%s", s)
	}
	if !strings.Contains(s, "orphaned checkpoint temp file") {
		t.Fatalf("orphaned temp file not reported:\n%s", s)
	}

	// Corrupt the checkpoint body: walcheck must flag it and exit nonzero
	// (the WAL alone no longer proves the truncated prefix).
	files, err := checkpoint.Files(segDir)
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files: %v %v", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bin, segDir, peer).CombinedOutput()
	if err == nil {
		t.Fatalf("corrupt checkpoint accepted:\n%s", out)
	}
}

// TestWalcheckFormatV1Checkpoint: a checkpoint in format version 1 — intact
// down to its checksum — is unreadable to recovery, so walcheck reports it
// and exits nonzero.
func TestWalcheckFormatV1Checkpoint(t *testing.T) {
	bin := buildWalcheck(t)
	dir := filepath.Join(t.TempDir(), "v1")
	writeWAL(t, dir, []storage.Record{rec(3, txn(0, 2), "y", "1")})
	body := []byte("a version-1 body")
	file := []byte{'r', 'p', 'C', 'K', 0, 0, 0, 1}
	file = binary.LittleEndian.AppendUint32(file, uint32(len(body)))
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(body))
	if err := os.WriteFile(filepath.Join(dir, "ckpt-0000000000000002.ckpt"), append(file, body...), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, dir).CombinedOutput()
	if err == nil {
		t.Fatalf("format-1 checkpoint accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "format version 1") {
		t.Fatalf("format-1 checkpoint not reported:\n%s", out)
	}
}

func TestWalcheckCheckpointWALGap(t *testing.T) {
	bin := buildWalcheck(t)
	dir := t.TempDir()

	// The checkpoint says applied=1 but the surviving WAL starts at index 3:
	// record 2 is gone from both — truncation outran durability.
	segDir := filepath.Join(dir, "gap")
	w, err := storage.OpenSegments(segDir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(3, txn(0, 2), "y", "1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ck := &checkpoint.Checkpoint{
		Applied: 1,
		Entries: []message.SnapshotEntry{{
			Key:      "x",
			Versions: []message.VersionRec{{Index: 1, Writer: txn(0, 1), Value: message.Value("1")}},
		}},
	}
	if _, _, err := checkpoint.Write(segDir, ck); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, segDir).CombinedOutput()
	if err == nil {
		t.Fatalf("gapped checkpoint+WAL accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "gap between checkpoint") {
		t.Fatalf("gap not diagnosed:\n%s", out)
	}
}

func TestWalcheckCorruptRecordSurfacedOnce(t *testing.T) {
	bin := buildWalcheck(t)
	dir := t.TempDir()

	path := filepath.Join(dir, "corrupt")
	writeWAL(t, path, []storage.Record{
		rec(1, txn(0, 1), "x", "1"),
		rec(2, txn(1, 1), "x", "2"),
		rec(3, txn(0, 2), "y", "1"),
	})
	seg := filepath.Join(path, "wal-000001.seg")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // flip a bit in the last record's body
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	peer := filepath.Join(dir, "peer")
	writeWAL(t, peer, []storage.Record{
		rec(1, txn(0, 1), "x", "1"),
		rec(2, txn(1, 1), "x", "2"),
	})
	out, err := exec.Command(bin, path, peer).CombinedOutput()
	if err == nil {
		t.Fatalf("corrupt log accepted:\n%s", out)
	}
	s := string(out)
	if got := strings.Count(s, "corrupt record"); got != 1 {
		t.Fatalf("corruption surfaced %d times, want 1:\n%s", got, s)
	}
	// The valid 2-record prefix was still recovered and cross-checked.
	if !strings.Contains(s, "2 commits") || !strings.Contains(s, "consistent") {
		t.Fatalf("valid prefix not recovered/cross-checked:\n%s", s)
	}
}

// TestWalcheckShardedGroupDirs runs a 2-group sharded cluster where every
// site journals each replicated group into its own g<N>/ segmented WAL,
// then audits the per-site directories: walcheck must detect the sharded
// layout and cross-check version chains group by group.
func TestWalcheckShardedGroupDirs(t *testing.T) {
	bin := buildWalcheck(t)
	dir := t.TempDir()
	const n = 4
	link := netsim.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond}
	c := sim.NewCluster(n, link, 31)
	engines := make([]*core.ShardedEngine, n)
	for i := 0; i < n; i++ {
		site := message.SiteID(i)
		rt := c.Runtime(site)
		cfg := core.Config{
			Shard:    &shard.Config{Groups: 2, RF: 3},
			Recorder: sgraph.NewRecorder(),
		}
		cfg.GroupWAL = func(g message.GroupID) *storage.WAL {
			w, err := storage.OpenSegments(filepath.Join(dir, fmt.Sprintf("site%d", site), g.String()), 1<<20)
			if err != nil {
				t.Fatalf("open WAL site %v group %v: %v", site, g, err)
			}
			return w
		}
		e, err := core.NewSharded(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
		c.Bind(site, e)
	}
	c.Start()

	ring := engines[0].Ring()
	keyIn := func(g message.GroupID, tag string) message.Key {
		for i := 0; i < 10000; i++ {
			k := message.Key(fmt.Sprintf("%s%d", tag, i))
			if ring.GroupOf(k) == g {
				return k
			}
		}
		t.Fatalf("no key in group %v", g)
		return ""
	}
	a, b := keyIn(0, "a"), keyIn(1, "b")
	commit := func(at time.Duration, site int, writes []message.KV) {
		c.Schedule(at, func() {
			e := engines[site]
			tx := e.Begin(false)
			for _, w := range writes {
				if err := e.Write(tx, w.Key, w.Value); err != nil {
					t.Errorf("write: %v", err)
				}
			}
			e.Commit(tx, func(core.Outcome, core.AbortReason) {})
		})
	}
	commit(10*time.Millisecond, 0, []message.KV{{Key: a, Value: message.Value("v1")}})
	commit(60*time.Millisecond, 3, []message.KV{{Key: b, Value: message.Value("v1")}})
	commit(200*time.Millisecond, 0, []message.KV{
		{Key: a, Value: message.Value("x")},
		{Key: b, Value: message.Value("x")},
	})
	commit(400*time.Millisecond, 1, []message.KV{{Key: a, Value: message.Value("v2")}})
	if _, err := c.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		e.FlushPipelines()
	}

	args := []string{"-v"}
	for i := 0; i < n; i++ {
		args = append(args, filepath.Join(dir, fmt.Sprintf("site%d", i)))
	}
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("consistent sharded WALs rejected: %v\n%s", err, out)
	}
	// 4 sites x 2 replicated groups each (RF=3 over 4 sites means every
	// site misses exactly one group... not so: groups {0,1,2} and {0,2,3},
	// sites 0 and 2 hold both) — 2+1+2+1 = 6 logs.
	if !strings.Contains(string(out), "6 logs") {
		t.Fatalf("per-group logs not all audited:\n%s", out)
	}
}

// TestWalcheckShardedGroupDivergence hand-writes two sites' g0 logs with
// the same two commits in OPPOSITE apply orders: the per-group cross-check
// must flag the divergence and name the group.
func TestWalcheckShardedGroupDivergence(t *testing.T) {
	bin := buildWalcheck(t)
	dir := t.TempDir()
	write := func(site string, first, second message.TxnID) {
		w, err := storage.OpenSegments(filepath.Join(dir, site, "g0"), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rec(1, first, "k", "1")); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rec(2, second, "k", "2")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("siteA", txn(0, 1), txn(1, 1))
	write("siteB", txn(1, 1), txn(0, 1))
	out, err := exec.Command(bin, filepath.Join(dir, "siteA"), filepath.Join(dir, "siteB")).CombinedOutput()
	if err == nil {
		t.Fatalf("diverging group logs accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "group g0") {
		t.Fatalf("divergence does not name the group:\n%s", out)
	}
}
