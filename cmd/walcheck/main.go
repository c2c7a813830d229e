// Command walcheck audits the durable state of a cluster offline: given
// the write-ahead logs of several sites, it replays each one and
// cross-checks that the sites' committed version chains are mutually
// consistent (per key, one site's chain must be a contiguous window of
// another's — lagging or resynced replicas are fine, reordered or
// divergent ones are not), then reports per-site summaries.
//
// A site's log is the segmented directory replicadb's -wal names
// (wal-000001.seg, wal-000002.seg, ...):
//
//	walcheck wal0/ wal1/ wal2/
//
// A single-file log from an older version is refused with the command that
// migrates it: the file becomes the directory's first segment.
//
// Under partial replication a site's directory instead holds one
// subdirectory per replication group it replicates (g0/, g1/, ...), each a
// segmented WAL (plus checkpoints) of that group's commits. walcheck
// detects the layout, replays every group log, and cross-checks version
// chains within each group independently — group-local order indices are
// not comparable across groups, and different sites replicate different
// group subsets:
//
//	walcheck wal0/ wal1/ wal2/   # where wal0/g0, wal0/g1, wal1/g0, ... exist
//
// A torn tail (crash between a batch's write and its completion) at the end
// of a log's final segment ends that log's replay silently: that is the
// format working as designed. A checksum mismatch, or a truncated record in
// a non-final segment (records missing mid-log), is corruption: walcheck
// warns, cross-checks the valid prefix anyway, and exits nonzero.
//
// A log directory may also hold checkpoint files (ckpt-*.ckpt) written by
// internal/checkpoint. walcheck verifies each one, seeds the site's version
// chains from the newest valid checkpoint before replaying the WAL suffix
// above its applied index — what checkpoint.Recover does at a restart — and
// cross-checks that the truncated WAL still meets the checkpoint (a first
// record more than one index above the checkpoint's applied index means
// truncation outran durability). A checkpoint in format version 1 (from
// before checkpoints used the wire codec) is reported like corruption: no
// restart can read it. Orphaned ckpt-*.ckpt.tmp files — a crash
// mid-checkpoint-write — are reported but are not corruption: recovery
// ignores them by design.
//
// Exit status: 0 consistent, 1 divergence, corruption, or unreadable log.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/message"
	"repro/internal/sgraph"
	"repro/internal/storage"
)

func main() {
	verbose := flag.Bool("v", false, "print per-key version chains")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: walcheck [-v] wal0/ [wal1/ ...]")
		os.Exit(1)
	}
	if err := runPaths(flag.Args(), *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "walcheck:", err)
		os.Exit(1)
	}
}

// groupDirPat matches per-group subdirectory names as written by the
// sharded engine (message.GroupID.String).
var groupDirPat = regexp.MustCompile(`^g[0-9]+$`)

// groupDirs returns path's per-group WAL subdirectories (sorted), or nil
// when path is not a sharded site directory.
func groupDirs(path string) []string {
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && groupDirPat.MatchString(e.Name()) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

func runPaths(paths []string, verbose bool) error {
	// One recorder per replication group ("" = unsharded logs): version
	// chains are comparable only within a group.
	recs := map[string]*sgraph.Recorder{}
	recFor := func(group string) *sgraph.Recorder {
		r := recs[group]
		if r == nil {
			r = sgraph.NewRecorder()
			recs[group] = r
		}
		return r
	}
	corrupt := false
	logs := 0
	for i, path := range paths {
		site := message.SiteID(i)
		if groups := groupDirs(path); len(groups) > 0 {
			for _, g := range groups {
				c, err := checkLog(filepath.Join(path, g), site, recFor(g))
				if err != nil {
					return err
				}
				corrupt = corrupt || c
				logs++
			}
			continue
		}
		c, err := checkLog(path, site, recFor(""))
		if err != nil {
			return err
		}
		corrupt = corrupt || c
		logs++
	}
	groups := make([]string, 0, len(recs))
	for g := range recs {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	keyTotal := 0
	for _, g := range groups {
		orders, err := recs[g].VersionOrders()
		if err != nil {
			if g != "" {
				return fmt.Errorf("DIVERGENCE in group %s: %w", g, err)
			}
			return fmt.Errorf("DIVERGENCE: %w", err)
		}
		keyTotal += len(orders)
		if verbose {
			if g != "" {
				fmt.Printf("group %s:\n", g)
			}
			for key, chain := range orders {
				fmt.Printf("  %-20s", key)
				for _, w := range chain {
					fmt.Printf(" %v", w)
				}
				fmt.Println()
			}
		}
	}
	fmt.Printf("\nconsistent: %d keys across %d logs\n", keyTotal, logs)
	if corrupt {
		return fmt.Errorf("corruption detected (the valid prefixes are consistent)")
	}
	return nil
}

// checkLog replays one site's log directory (with optional checkpoints)
// into rec and prints its summary line. It returns whether corruption was
// found; hard errors (missing or unreadable paths) abort the audit.
func checkLog(path string, site message.SiteID, rec *sgraph.Recorder) (bool, error) {
	if _, err := os.Stat(path); err != nil {
		return false, err
	}
	floor, ckptNote, corrupt := seedFromCheckpoint(path, site, rec)
	var records, writes, skipped int
	var first, last uint64
	scan := func(r storage.Record) error {
		if first == 0 {
			first = r.Index
		}
		if r.Index <= floor {
			// Already covered by the checkpoint: recovery skips these
			// too (the crash-between-rename-and-truncation window).
			skipped++
			return nil
		}
		records++
		writes += len(r.Writes)
		last = r.Index
		for _, w := range r.Writes {
			rec.RecordApply(site, w.Key, r.Txn)
		}
		return nil
	}
	if err := storage.ReplaySegments(path, scan); err != nil {
		if !errors.Is(err, storage.ErrCorrupt) {
			return corrupt, err
		}
		// The valid prefix was already delivered; cross-check it, warn
		// once, and fail at exit.
		fmt.Fprintf(os.Stderr, "walcheck: %v (checking the valid prefix)\n", err)
		corrupt = true
	}
	if floor > 0 && first > floor+1 {
		// The retained WAL does not reach back to the checkpoint: records
		// between applied index floor and `first` are gone from both the
		// checkpoint and the log.
		fmt.Fprintf(os.Stderr, "walcheck: %s: gap between checkpoint (applied index %d) and first WAL record (index %d)\n",
			path, floor, first)
		corrupt = true
	}
	if skipped > 0 {
		ckptNote += fmt.Sprintf(", %d records below the checkpoint", skipped)
	}
	fmt.Printf("%-24s site %v: %d commits, %d writes, last index %d%s\n", path, site, records, writes, last, ckptNote)
	return corrupt, nil
}

// seedFromCheckpoint audits the checkpoint files beside a segmented WAL:
// every ckpt-*.ckpt is read (a checksum mismatch, an undecodable body or
// format version 1 is corruption), orphaned ckpt-*.ckpt.tmp files are
// reported, and the newest valid checkpoint seeds the recorder with the
// site's retained version chains. It returns the checkpoint's applied index
// (the replay floor), a note for the per-site summary line, and whether any
// checkpoint file was unreadable.
func seedFromCheckpoint(dir string, site message.SiteID, rec *sgraph.Recorder) (floor uint64, note string, corrupt bool) {
	files, err := checkpoint.Files(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "walcheck: %s: listing checkpoints: %v\n", dir, err)
		return 0, "", true
	}
	var newest *checkpoint.Checkpoint
	for _, f := range files {
		ck, err := checkpoint.Read(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "walcheck: %s: %v\n", f, err)
			corrupt = true
			continue
		}
		newest = ck // Files sorts ascending, so the last valid one is newest.
	}
	if tmps, err := checkpoint.TempFiles(dir); err == nil {
		for _, f := range tmps {
			fmt.Fprintf(os.Stderr, "walcheck: %s: orphaned checkpoint temp file (crash mid-write; ignored by recovery, safe to delete)\n", f)
		}
	}
	if newest == nil {
		return 0, "", corrupt
	}
	for _, e := range newest.Entries {
		for _, v := range e.Versions {
			rec.RecordApply(site, e.Key, v.Writer)
		}
	}
	return newest.Applied, fmt.Sprintf(", checkpoint at index %d (%d keys)", newest.Applied, len(newest.Entries)), corrupt
}
