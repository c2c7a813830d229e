// Command tracecheck is the offline invariant checker for span streams
// produced by internal/trace (simtrace -export, the replicadb TRACE
// command, or harness runs). It re-derives the protocols' correctness and
// cost claims from the recorded spans alone:
//
//   - protocol A: every site certifies the identical total order of commit
//     requests with the identical verdicts;
//   - protocol C: deliveries respect causal precedence (everything the
//     origin had delivered before sending precedes the send everywhere)
//     and per-origin FIFO order;
//   - all protocols: no transaction is both committed and aborted, and no
//     aborted transaction's writes were applied anywhere;
//   - round counts match the paper's analytical predictions: n acks per
//     write operation and n votes per commit under R, no explicit
//     acknowledgements at all under C (one implicit-ack wait per commit),
//     and no acknowledgements or votes of any kind under A, where
//     certification replaces the vote exchange.
//
// It also reports per-kind span-duration percentiles, the observable the
// paper's latency analysis is built on.
//
//	simtrace -proto causal -sites 3 -txns 25 -seed 7 -export - | tracecheck
//	tracecheck dump-site0.jsonl dump-site1.jsonl
//
// Exit status 1 when any invariant is violated.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tracecheck [file.jsonl ...]   (reads stdin when no files given)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	ok, err := run(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(files []string) (bool, error) {
	var dumps []trace.Dump
	if len(files) == 0 {
		d, err := trace.ReadJSONL(os.Stdin)
		if err != nil {
			return false, err
		}
		dumps = d
	}
	for _, f := range files {
		r, err := os.Open(f)
		if err != nil {
			return false, err
		}
		d, err := trace.ReadJSONL(r)
		r.Close()
		if err != nil {
			return false, fmt.Errorf("%s: %v", f, err)
		}
		dumps = append(dumps, d...)
	}
	if len(dumps) == 0 {
		return false, fmt.Errorf("no dumps in input")
	}
	c := newChecker(dumps)
	if err := c.validate(); err != nil {
		return false, err
	}
	c.checkContradictions()
	if c.dropped > 0 {
		fmt.Printf("warning: %d spans dropped by ring overflow; skipping order and round-count checks (raise the trace capacity)\n", c.dropped)
	} else if c.groups > 1 {
		// Partial replication: certification indices and participation are
		// per replication group, so the full-cluster order and round checks
		// do not apply; their per-group counterparts do.
		c.checkShardOrder()
		c.checkShardAtomicity()
		c.checkShardTermination()
	} else {
		switch c.proto {
		case "atomic":
			c.checkAtomicOrder()
			c.checkAtomicRounds()
		case "causal":
			c.checkCausalPrecedence()
			c.checkCausalRounds()
		case "reliable":
			c.checkReliableRounds()
		}
	}
	c.report()
	return len(c.violations) == 0, nil
}

// checker accumulates the parsed dumps and found violations.
type checker struct {
	dumps      []trace.Dump
	proto      string
	mode       string
	sites      int
	groups     int
	dropped    uint64
	violations []string

	// byTrace indexes every span by transaction, preserving per-site
	// emission order within each slice.
	byTrace map[message.TxnID][]trace.Span
}

func newChecker(dumps []trace.Dump) *checker {
	c := &checker{dumps: dumps, byTrace: make(map[message.TxnID][]trace.Span)}
	for _, d := range dumps {
		if c.proto == "" {
			c.proto = d.Meta.Proto
		}
		if c.mode == "" {
			c.mode = d.Meta.AtomicMode
		}
		if d.Meta.Sites > c.sites {
			c.sites = d.Meta.Sites
		}
		if d.Meta.Groups > c.groups {
			c.groups = d.Meta.Groups
		}
		c.dropped += d.Meta.Dropped
		for _, s := range d.Spans {
			c.byTrace[s.Trace] = append(c.byTrace[s.Trace], s)
		}
	}
	if c.sites == 0 {
		c.sites = len(dumps)
	}
	return c
}

func (c *checker) validate() error {
	for _, d := range c.dumps {
		if d.Meta.Proto != "" && d.Meta.Proto != c.proto {
			return fmt.Errorf("mixed protocols in input (%q and %q); check one protocol per run", c.proto, d.Meta.Proto)
		}
	}
	return nil
}

func (c *checker) failf(format string, args ...any) {
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// count returns how many spans of kind k the trace has at site (or at any
// site when site is trace.NoPeer).
func count(spans []trace.Span, k trace.Kind, site message.SiteID) int {
	n := 0
	for _, s := range spans {
		if s.Kind == k && (site == trace.NoPeer || s.Site == site) {
			n++
		}
	}
	return n
}

// sortedTraces returns the trace IDs in deterministic order.
func (c *checker) sortedTraces() []message.TxnID {
	out := make([]message.TxnID, 0, len(c.byTrace))
	for id := range c.byTrace {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// committedUpdates returns traces with a committed outcome and at least one
// write-send span — the update transactions the round-count predictions
// cover (read-only commits exchange no messages).
func (c *checker) committedUpdates() []message.TxnID {
	var out []message.TxnID
	for _, id := range c.sortedTraces() {
		spans := c.byTrace[id]
		committed := false
		for _, s := range spans {
			if s.Kind == trace.KindOutcome && s.Extra == 1 {
				committed = true
			}
		}
		if committed && count(spans, trace.KindWriteSend, trace.NoPeer) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// checkContradictions verifies that no transaction carries both a committed
// and an aborted outcome, and that no aborted transaction's writes reached
// any site's store. Safe even under ring overflow: dropped spans can hide a
// violation but never fabricate one.
func (c *checker) checkContradictions() {
	for _, id := range c.sortedTraces() {
		spans := c.byTrace[id]
		var committed, aborted bool
		for _, s := range spans {
			if s.Kind != trace.KindOutcome {
				continue
			}
			if s.Extra == 1 {
				committed = true
			} else {
				aborted = true
			}
		}
		if committed && aborted {
			c.failf("%v: both committed and aborted outcomes recorded", id)
		}
		if aborted && !committed {
			if n := count(spans, trace.KindApply, trace.NoPeer); n > 0 {
				c.failf("%v: aborted but applied at %d site(s)", id, n)
			}
		}
	}
}

// checkAtomicOrder verifies protocol A's headline property: every site
// processes the identical total order of commit requests and reaches the
// identical certification verdicts.
func (c *checker) checkAtomicOrder() {
	type certEvent struct {
		idx     uint64
		id      message.TxnID
		verdict int64
	}
	var ref []certEvent
	var refSite int32
	for i, d := range c.dumps {
		var seq []certEvent
		for _, s := range d.Spans {
			if s.Kind == trace.KindCert {
				seq = append(seq, certEvent{s.Seq, s.Trace, s.Extra})
			}
		}
		if i == 0 {
			ref, refSite = seq, d.Meta.Site
			continue
		}
		if len(seq) != len(ref) {
			c.failf("site %d certified %d requests, site %d certified %d", d.Meta.Site, len(seq), refSite, len(ref))
			continue
		}
		for j := range seq {
			if seq[j] != ref[j] {
				c.failf("commit order diverges at position %d: site %d saw %v@%d(ok=%d), site %d saw %v@%d(ok=%d)",
					j, d.Meta.Site, seq[j].id, seq[j].idx, seq[j].verdict, refSite, ref[j].id, ref[j].idx, ref[j].verdict)
				break
			}
		}
	}
}

// pairKey identifies one broadcast (origin site, origin sequence).
type pairKey struct {
	origin message.SiteID
	seq    uint64
}

// checkCausalPrecedence verifies protocol C's delivery order: everything
// the origin site had delivered before broadcasting a message must be
// delivered before that message at every site, and per-origin delivery is
// FIFO. Both are derived purely from per-site span emission order.
func (c *checker) checkCausalPrecedence() {
	// deliverPos[site][msg] = emission-order position of msg's delivery.
	deliverPos := make(map[message.SiteID]map[pairKey]int, len(c.dumps))
	for _, d := range c.dumps {
		site := message.SiteID(d.Meta.Site)
		pos := make(map[pairKey]int)
		lastSeq := make(map[message.SiteID]uint64)
		for i, s := range d.Spans {
			if s.Kind != trace.KindBcastDeliver {
				continue
			}
			m := pairKey{s.Peer, s.Seq}
			if _, dup := pos[m]; dup {
				c.failf("site %d delivered broadcast (%d,%d) twice", site, m.origin, m.seq)
				continue
			}
			pos[m] = i
			if s.Seq <= lastSeq[s.Peer] {
				c.failf("site %d violates FIFO from origin %d: seq %d delivered after %d", site, s.Peer, s.Seq, lastSeq[s.Peer])
			}
			lastSeq[s.Peer] = s.Seq
		}
		deliverPos[site] = pos
	}
	// For every broadcast, its causal predecessors are the messages its
	// origin had delivered before the send.
	for _, d := range c.dumps {
		origin := message.SiteID(d.Meta.Site)
		var deliveredSoFar []pairKey
		for _, s := range d.Spans {
			if s.Kind == trace.KindBcastDeliver {
				deliveredSoFar = append(deliveredSoFar, pairKey{s.Peer, s.Seq})
				continue
			}
			if s.Kind != trace.KindBcastSend || s.Site != origin {
				continue
			}
			msg := pairKey{origin, s.Seq}
			for site, pos := range deliverPos {
				if site == origin {
					continue
				}
				tpos, delivered := pos[msg]
				if !delivered {
					c.failf("broadcast (%d,%d) [%v] never delivered at site %d", msg.origin, msg.seq, s.Trace, site)
					continue
				}
				for _, pred := range deliveredSoFar {
					ppos, ok := pos[pred]
					if !ok {
						c.failf("site %d delivered (%d,%d) without its causal predecessor (%d,%d)",
							site, msg.origin, msg.seq, pred.origin, pred.seq)
						continue
					}
					if ppos > tpos {
						c.failf("site %d delivered (%d,%d) before its causal predecessor (%d,%d)",
							site, msg.origin, msg.seq, pred.origin, pred.seq)
					}
				}
			}
		}
	}
}

// checkReliableRounds verifies protocol R's analytical message counts: each
// write operation gathers an acknowledgement from all n sites at the home
// site, and commitment gathers one vote per site.
func (c *checker) checkReliableRounds() {
	n := c.sites
	for _, id := range c.committedUpdates() {
		spans := c.byTrace[id]
		home := id.Site
		ops := count(spans, trace.KindWriteSend, home)
		acks := count(spans, trace.KindAck, home)
		if acks != ops*n {
			c.failf("%v: %d acks at home for %d write ops over %d sites (want %d)", id, acks, ops, n, ops*n)
		}
		if votes := count(spans, trace.KindVote, home); votes != n {
			c.failf("%v: %d votes at home (want %d, one per site)", id, votes, n)
		}
		if waits := count(spans, trace.KindAckWait, home); waits != ops {
			c.failf("%v: %d ack-wait rounds at home for %d write ops", id, waits, ops)
		}
	}
}

// checkCausalRounds verifies protocol C's headline property: commitment
// uses no explicit acknowledgements or votes at all — one implicit-ack wait
// per committed update transaction, closed by mining vector clocks.
func (c *checker) checkCausalRounds() {
	for _, d := range c.dumps {
		if n := count(d.Spans, trace.KindAck, trace.NoPeer); n > 0 {
			c.failf("site %d recorded %d explicit acks under protocol C", d.Meta.Site, n)
		}
		if n := count(d.Spans, trace.KindVote, trace.NoPeer); n > 0 {
			c.failf("site %d recorded %d votes under protocol C", d.Meta.Site, n)
		}
	}
	for _, id := range c.committedUpdates() {
		if waits := count(c.byTrace[id], trace.KindAckWait, id.Site); waits != 1 {
			c.failf("%v: %d implicit-ack waits at home (want exactly 1)", id, waits)
		}
	}
}

// checkAtomicRounds verifies protocol A exchanges no acknowledgements or
// votes, certifies every committed update at all n sites with agreeing
// verdicts, and runs the expected ordering rounds (at least one leader
// ordering under the sequencer and the batch orderer, or n proposals and n
// finals under ISIS).
func (c *checker) checkAtomicRounds() {
	n := c.sites
	for _, d := range c.dumps {
		for _, k := range []trace.Kind{trace.KindAck, trace.KindVote, trace.KindNack} {
			if cnt := count(d.Spans, k, trace.NoPeer); cnt > 0 {
				c.failf("site %d recorded %d %v spans under protocol A", d.Meta.Site, cnt, k)
			}
		}
	}
	for _, id := range c.sortedTraces() {
		spans := c.byTrace[id]
		certs := count(spans, trace.KindCert, trace.NoPeer)
		if certs == 0 {
			continue // read-only or unfinished: never reached certification
		}
		if certs != n {
			c.failf("%v: certified at %d of %d sites", id, certs, n)
		}
		verdict := int64(-1)
		for _, s := range spans {
			if s.Kind != trace.KindCert {
				continue
			}
			if verdict == -1 {
				verdict = s.Extra
			} else if s.Extra != verdict {
				c.failf("%v: certification verdicts disagree across sites", id)
				break
			}
		}
		if verdict == 1 {
			if applies := count(spans, trace.KindApply, trace.NoPeer); applies != n {
				c.failf("%v: applied at %d of %d sites", id, applies, n)
			}
		}
		switch c.mode {
		case "isis":
			if p := count(spans, trace.KindIsisPropose, trace.NoPeer); p != n {
				c.failf("%v: %d ISIS proposals (want %d, one per site)", id, p, n)
			}
			if f := count(spans, trace.KindIsisFinal, trace.NoPeer); f != n {
				c.failf("%v: %d ISIS finals (want %d, one per site)", id, f, n)
			}
		case "sequencer", "batch":
			if o := count(spans, trace.KindSeqOrder, trace.NoPeer); o < 1 {
				c.failf("%v: no leader ordering recorded", id)
			}
		}
	}
}

// shardEvent is one per-group ordered event: a certification or a
// cross-shard decision at a group-local total-order index.
type shardEvent struct {
	kind    trace.Kind
	idx     uint64
	id      message.TxnID
	verdict int64
}

// checkShardOrder verifies partial replication's per-group counterpart of
// protocol A's headline property: within each replication group, every
// participating site processes the same group-local total order of
// certifications and decisions with identical verdicts. Sites outside a
// group record no spans for it and are naturally excluded.
//
// Dumps are finite windows (ring buffers wrap, operators snapshot sites
// at different instants, a rejoining site certifies backlogged entries
// long after its peers did), so sites legitimately capture different
// slices of the group history. The invariant checked is therefore the
// same one walcheck applies to per-group WALs: every site's sequence
// must be a contiguous window of the longest site's sequence. Lagging
// or resynced sites truncate the history at either end — they never
// reorder it, skip inside it, or disagree on a verdict.
func (c *checker) checkShardOrder() {
	// perGroup[group][site] = that site's event sequence, emission order.
	perGroup := make(map[int32]map[int32][]shardEvent)
	for _, d := range c.dumps {
		for _, s := range d.Spans {
			if s.Kind != trace.KindShardCert && s.Kind != trace.KindShardDecide {
				continue
			}
			g := int32(s.Peer)
			m := perGroup[g]
			if m == nil {
				m = make(map[int32][]shardEvent)
				perGroup[g] = m
			}
			m[d.Meta.Site] = append(m[d.Meta.Site], shardEvent{s.Kind, s.Seq, s.Trace, s.Extra})
		}
	}
	groups := make([]int32, 0, len(perGroup))
	for g := range perGroup {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	for _, g := range groups {
		bySite := perGroup[g]
		sites := make([]int32, 0, len(bySite))
		for s := range bySite {
			sites = append(sites, s)
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
		// Reference = the site that captured the most of the group's
		// history (ties broken by lowest site id, deterministically).
		ref, refSite := bySite[sites[0]], sites[0]
		for _, s := range sites[1:] {
			if len(bySite[s]) > len(ref) {
				ref, refSite = bySite[s], s
			}
		}
		for _, s := range sites {
			if s == refSite {
				continue
			}
			seq := bySite[s]
			if !isWindowOf(ref, seq) {
				c.failf("group %d: site %d's %d ordered events are not a contiguous window of site %d's %d — the group order diverges",
					g, s, len(seq), refSite, len(ref))
			}
		}
	}
}

// isWindowOf reports whether seq appears as a contiguous run inside ref.
// An empty seq is a window of anything (the site's capture simply missed
// this group's traffic). Sequences are dump-sized, so the quadratic scan
// is fine.
func isWindowOf(ref, seq []shardEvent) bool {
	if len(seq) == 0 {
		return true
	}
	for start := 0; start+len(seq) <= len(ref); start++ {
		match := true
		for j := range seq {
			if ref[start+j] != seq[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// checkShardAtomicity verifies the cross-shard commit invariant: a
// transaction that opened a vote-collection round (a shard-coord span,
// whose Seq is the touched-group bitmask) either commits in EVERY touched
// group or in none — no group may decide commit while another decides
// abort, and a commit may not skip a touched group.
func (c *checker) checkShardAtomicity() {
	for _, id := range c.sortedTraces() {
		spans := c.byTrace[id]
		var mask uint64
		hasCoord := false
		for _, s := range spans {
			if s.Kind == trace.KindShardCoord {
				hasCoord = true
				mask = s.Seq
			}
		}
		if !hasCoord {
			continue
		}
		// One verdict per group; replicas of a group must agree.
		decided := make(map[int32]int64)
		for _, s := range spans {
			if s.Kind != trace.KindShardDecide {
				continue
			}
			g := int32(s.Peer)
			if v, ok := decided[g]; ok && v != s.Extra {
				c.failf("%v: group %d replicas disagree on the decision (%d vs %d)", id, g, v, s.Extra)
			}
			decided[g] = s.Extra
		}
		var commits, aborts []int32
		for g, v := range decided {
			if v == 1 {
				commits = append(commits, g)
			} else {
				aborts = append(aborts, g)
			}
		}
		sort.Slice(commits, func(i, j int) bool { return commits[i] < commits[j] })
		sort.Slice(aborts, func(i, j int) bool { return aborts[i] < aborts[j] })
		if len(commits) > 0 && len(aborts) > 0 {
			c.failf("%v: atomicity violated — committed in group(s) %v but aborted in group(s) %v", id, commits, aborts)
		}
		if len(commits) > 0 {
			for g := int32(0); g < 64; g++ {
				if mask&(1<<uint(g)) == 0 {
					continue
				}
				if v, ok := decided[g]; !ok || v != 1 {
					c.failf("%v: atomicity violated — touched group %d has no commit decision (mask %#x)", id, g, mask)
				}
			}
			for _, g := range commits {
				if g >= 64 || mask&(1<<uint(g)) == 0 {
					c.failf("%v: commit decision in group %d outside the touched mask %#x", id, g, mask)
				}
			}
		}
	}
}

// checkShardTermination verifies that no cross-shard prepare is left
// stranded: once any group certified a transaction (a shard-cert span
// exists), every group in the coordinator's touched mask must eventually
// record a decision — reached by the coordinator or, after its failure, by
// a successor's termination round. A txn with certs but a decision-less
// touched group is a stuck prepare: its footprint keys stay blocked
// forever. Runs on full-execution dumps (after the drain window); a trace
// cut mid-round would report false positives.
func (c *checker) checkShardTermination() {
	for _, id := range c.sortedTraces() {
		spans := c.byTrace[id]
		var mask uint64
		hasCoord, hasCert := false, false
		decided := make(map[int32]bool)
		for _, s := range spans {
			switch s.Kind {
			case trace.KindShardCoord:
				hasCoord = true
				mask = s.Seq
			case trace.KindShardCert:
				hasCert = true
			case trace.KindShardDecide:
				decided[int32(s.Peer)] = true
			}
		}
		if !hasCoord || !hasCert {
			continue
		}
		for g := int32(0); g < 64; g++ {
			if mask&(1<<uint(g)) == 0 {
				continue
			}
			if !decided[g] {
				c.failf("%v: stuck prepare — certified but touched group %d never recorded a decision (mask %#x)", id, g, mask)
			}
		}
	}
}

// report prints the per-kind duration percentiles, the measured round
// counts, and the verdict.
func (c *checker) report() {
	totalSpans := 0
	hists := make(map[trace.Kind]*metrics.Histogram)
	for _, d := range c.dumps {
		totalSpans += len(d.Spans)
		for _, s := range d.Spans {
			h := hists[s.Kind]
			if h == nil {
				h = metrics.NewHistogram(0)
				hists[s.Kind] = h
			}
			h.Observe(s.Duration())
		}
	}
	fmt.Printf("tracecheck: proto=%s", c.proto)
	if c.mode != "" && c.proto == "atomic" {
		fmt.Printf(" mode=%s", c.mode)
	}
	if c.groups > 1 {
		fmt.Printf(" groups=%d", c.groups)
	}
	fmt.Printf(" sites=%d spans=%d traces=%d\n", c.sites, totalSpans, len(c.byTrace))

	kinds := make([]trace.Kind, 0, len(hists))
	for k := range hists {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	fmt.Printf("\n%-14s %7s %12s %12s\n", "span", "count", "p50", "p99")
	for _, k := range kinds {
		snap := hists[k].Snapshot()
		fmt.Printf("%-14s %7d %12v %12v\n", k, snap.Count, snap.P50.Round(time.Microsecond), snap.P99.Round(time.Microsecond))
	}

	updates := c.committedUpdates()
	if len(updates) > 0 {
		var acks, votes, nacks, certs, proposes int
		for _, d := range c.dumps {
			acks += count(d.Spans, trace.KindAck, trace.NoPeer)
			votes += count(d.Spans, trace.KindVote, trace.NoPeer)
			nacks += count(d.Spans, trace.KindNack, trace.NoPeer)
			certs += count(d.Spans, trace.KindCert, trace.NoPeer)
			proposes += count(d.Spans, trace.KindIsisPropose, trace.NoPeer)
		}
		den := float64(len(updates))
		fmt.Printf("\nround counts over %d committed updates: %.1f acks, %.1f votes, %.1f nacks, %.1f certifications, %.1f ISIS proposals per commit\n",
			len(updates), float64(acks)/den, float64(votes)/den, float64(nacks)/den, float64(certs)/den, float64(proposes)/den)
	}

	if len(c.violations) == 0 {
		fmt.Printf("\nOK: all invariants hold (0 violations)\n")
		return
	}
	fmt.Printf("\nFAIL: %d violation(s)\n", len(c.violations))
	for _, v := range c.violations {
		fmt.Println("  -", v)
	}
}
