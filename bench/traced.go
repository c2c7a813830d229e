package main

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// slice is what one open-loop slice cost the process.
type sliceCost struct {
	elapsed time.Duration
	before  usage
	mid     usage         // just before the checkpoint round
	midAt   time.Duration // bench clock of that reading
	after   usage
}

// runSlice drives in.open's arrivals over [0, warm+span) through c and
// differences the process counters from the end of warm-up to the end of
// the drain, with one checkpoint round half way. atWarm runs at the warm-up boundary, before the first reading;
// from is when that reading was taken, the start of what the slice counts.
func runSlice(c *cluster, l *load, warm, span time.Duration, atWarm func()) (sc sliceCost, from time.Duration, unfinished int64) {
	defer func() { sc.elapsed = sc.after.at.Sub(sc.before.at) }()
	sched := l.startOpen()
	time.Sleep(warm - l.now())
	if atWarm != nil {
		atWarm()
	}
	sc.before = readUsage(c)
	from = l.now()
	// One checkpoint round in the middle of the slice.
	time.Sleep(warm + span/2 - l.now())
	sc.mid, sc.midAt = readUsage(c), l.now()
	c.checkpointAll()
	<-sched
	unfinished = l.drain()
	sc.after = readUsage(c)
	return sc, from, unfinished
}

// runTraced is the run that yields the per-layer metrics. It first drives a
// short slice of the open phase through an untraced cluster as the tracing
// baseline, then the same slice (same seed, same rate) through a cluster
// whose engines carry span rings and a serialization-graph recorder and
// whose runtimes and nodes are wrapped by the benchmark's boundary probes.
// The micro-runs follow, on an otherwise idle process.
func runTraced(def *workloadDef, seed int64, p plan, dataRoot, outDir string) (*runResult, error) {
	res := &runResult{workload: def.name, traced: true}
	tracedWarm, span := p.tracedWarm, p.tracedSpan
	in, err := generate(def, seed, tracedWarm+span)
	if err != nil {
		return nil, err
	}
	res.add("workload.generate_ns_per_txn", "ns", float64(in.genT)/float64(len(in.open)+satListLen), int64(len(in.open)+satListLen))

	// Baseline: untraced cluster, same arrivals.
	ref, err := setUp(def, filepath.Join(dataRoot, def.name+"-ref"), false, 0)
	if err != nil {
		return nil, err
	}
	refLoad := newLoad(ref, in)
	refCost, refFrom, refUnfinished := runSlice(ref, refLoad, tracedWarm, span, nil)
	refStats := refLoad.openStats(refFrom, tracedWarm+span)
	// Saturation: the closed loop on the same untraced cluster. Throughput
	// and CPU per commit follow the host's processor and disk one to one,
	// and those have spells a third slower that no bound the manifest allows
	// would sit above; so they are measured here, where metrics have none.
	sat := runSaturation(ref, refLoad, p.tracedSat, p.ramp)
	refUnfinished += refLoad.drain()
	ref.stop()
	ref.close()

	c, err := setUp(def, filepath.Join(dataRoot, def.name+"-traced"), true, len(in.open))
	if err != nil {
		return nil, err
	}
	defer c.close()
	l := newLoad(c, in)
	for _, s := range c.sites {
		s.probe.reserve(len(in.open) * 16)
	}
	sliceStart := make([]time.Duration, len(c.sites))
	var before layerCounters
	stopSampler := make(chan struct{})
	samplerDone := make(chan int)
	cost, from, unfinished := runSlice(c, l, tracedWarm, span, func() {
		before = readLayerCounters(c)
		for i, s := range c.sites {
			sliceStart[i] = s.host.Now()
			s.probe.on.Store(true)
		}
		go func() { samplerDone <- samplePendingCoord(c, stopSampler) }()
	})
	for _, s := range c.sites {
		s.probe.on.Store(false)
	}
	close(stopSampler)
	pendingMax := <-samplerDone
	after := readLayerCounters(c)

	checkLive(c, res)
	c.stop()
	rc := checkDurable(c, l, res)
	if err := c.rec.Check(); err != nil {
		res.violate("serialization-graph check: %v", err)
	}

	st := l.openStats(from, tracedWarm+span)
	commits := max(st.updates, 1) // update commits acknowledged in the slice
	// Tracing overhead: CPU per transaction over the slice's first half,
	// before the checkpoint round, against the untraced baseline's.
	cpuPerTxn := func(sc sliceCost, l *load, from time.Duration) (float64, int64) {
		n := int64(0)
		for i := range l.in.open {
			if at := l.in.open[i].At; at >= from && at < sc.midAt && l.done[i] != 0 {
				n++
			}
		}
		return us(sc.mid.cpu-sc.before.cpu) / float64(max(n, 1)), n
	}
	tracedCPU, txns := cpuPerTxn(cost, l, from)
	refCPU, _ := cpuPerTxn(refCost, refLoad, refFrom)

	sp := analyzeSpans(c, sliceStart)
	var dropped uint64
	ringUsed := 0
	for _, s := range c.sites {
		dropped += s.tracer.Dropped()
		ringUsed = max(ringUsed, s.tracer.Len())
	}
	if dropped > 0 {
		res.violate("span rings dropped %d spans", dropped)
	}

	// message + livenet
	msgs := cost.after.msgs - cost.before.msgs
	res.add("message.wire_bytes_per_msg", "B", float64(cost.after.wire-cost.before.wire)/float64(max(msgs, 1)), msgs)
	res.add("livenet.msgs_per_commit", "count", float64(msgs)/float64(commits), commits)
	res.add("livenet.dropped_msgs", "count", float64(after.dropped), 0)
	res.add("livenet.flush_batch_mean", "count", after.flushMean, after.socketFlushes)
	var sendNs time.Duration
	var sends int64
	var waits []time.Duration
	var busiest time.Duration
	var recvSelf time.Duration
	byKind := map[message.Kind]time.Duration{}
	byKindN := map[message.Kind]int64{}
	for _, s := range c.sites {
		p := s.probe
		sendNs += p.sendNs
		sends += p.sends
		waits = append(waits, p.waits...)
		busiest = max(busiest, p.busy)
		for k, d := range p.recvSelf {
			recvSelf += d
			byKind[k] += d
			byKindN[k] += p.recvN[k]
		}
	}
	sortDurations(waits)
	res.add("livenet.send_ns", "ns", float64(sendNs)/float64(max(sends, 1)), sends)
	res.add("livenet.loop_wait_us_p50", "us", us(quantile(waits, 0.50)), int64(len(waits)))
	res.add("livenet.loop_wait_us_p99", "us", us(quantile(waits, 0.99)), int64(len(waits)))
	res.add("livenet.loop_busy_frac", "frac", float64(busiest)/float64(cost.elapsed), 0)

	// broadcast + core + lockmgr + commitpipe, from the engines' span rings
	res.add("broadcast.order_wait_us_p50", "us", us(quantile(sp.orderWait, 0.50)), int64(len(sp.orderWait)))
	res.add("core.receive_us_per_commit", "us", us(recvSelf)/float64(commits), commits)
	engineLat := metrics.NewHistogram(1 << 16)
	var begun int64
	aborts := map[core.AbortReason]int64{}
	for i := range after.stats {
		engineLat.Merge(after.stats[i].CommitLatency)
		begun += after.stats[i].Begun - before.stats[i].Begun
		for r, n := range after.stats[i].AbortsByReason {
			aborts[r] += n - before.stats[i].AbortsByReason[r]
		}
	}
	res.add("core.engine_commit_p50_ms", "ms", ms(engineLat.Quantile(0.50)), engineLat.Count())
	satCps, satCPU := sat.perCycle()
	res.add("core.sat_cps", "1/s", median(satCps), sat.commits)
	res.add("core.sat_cpu_us_per_commit", "us", median(satCPU), sat.commits)
	res.add("core.cert_wait_us_p50", "us", us(quantile(sp.certWait, 0.50)), int64(len(sp.certWait)))
	res.add("core.ack_wait_us_p50", "us", us(quantile(sp.ackWait, 0.50)), int64(len(sp.ackWait)))
	other := int64(0)
	for r, n := range aborts {
		if r != core.ReasonCertification && r != core.ReasonWriteConflict {
			other += n
		}
	}
	res.add("core.aborts_certification_frac", "frac", float64(aborts[core.ReasonCertification])/float64(max(begun, 1)), begun)
	res.add("core.aborts_write_conflict_frac", "frac", float64(aborts[core.ReasonWriteConflict])/float64(max(begun, 1)), begun)
	res.add("core.aborts_other_frac", "frac", float64(other)/float64(max(begun, 1)), begun)
	res.add("lockmgr.lock_wait_us_p50", "us", us(quantile(sp.lockWait, 0.50)), int64(len(sp.lockWait)))
	res.add("lockmgr.lock_wait_us_p99", "us", us(quantile(sp.lockWait, 0.99)), int64(len(sp.lockWait)))
	res.add("lockmgr.lock_waits_per_commit", "count", float64(len(sp.lockWait))/float64(commits), commits)
	socketFlushes := after.fsyncs - before.fsyncs
	res.add("commitpipe.records_per_fsync_mean", "count", after.batchMean, after.fsyncs)
	res.add("commitpipe.fsyncs_per_commit", "count", float64(socketFlushes)/float64(max(after.pipelines, 1))/float64(commits)*float64(c.groupCount()), socketFlushes)
	res.add("commitpipe.ack_wait_us_p50", "us", us(quantile(sp.applyToAck, 0.50)), int64(len(sp.applyToAck)))

	// storage + checkpoint
	res.add("storage.fsync_us_p50", "us", us(after.fsync.Quantile(0.50)), after.fsync.Count())
	res.add("storage.fsync_us_p99", "us", us(after.fsync.Quantile(0.99)), after.fsync.Count())
	res.add("storage.wal_bytes_per_commit", "B", float64(after.walBytes-before.walBytes)/float64(max(after.pipelines, 1))/float64(commits)*float64(c.groupCount()), commits)
	replayRate := 0.0
	if rc.replay > 0 {
		replayRate = float64(rc.replayRecords) / rc.replay.Seconds()
	}
	res.add("storage.replay_records_per_s", "1/s", replayRate, int64(rc.replayRecords))
	res.add("checkpoint.count", "count", float64(after.ckpts), 0)
	res.add("checkpoint.write_ms_p50", "ms", ms(after.ckptLat.Quantile(0.50)), after.ckptLat.Count())
	res.add("checkpoint.bytes_last", "B", float64(after.ckptBytes), 0)
	res.add("checkpoint.segments_truncated", "count", float64(after.segsTruncated), 0)
	res.add("checkpoint.recover_ms", "ms", ms(rc.recover), 0)

	// shard
	var single, cross []time.Duration
	for i := range in.open {
		t := &in.open[i]
		if t.At < from || t.ReadOnly || l.done[i] == 0 {
			continue
		}
		if spansGroups(c, t.Writes) {
			cross = append(cross, l.done[i]-t.At)
		} else {
			single = append(single, l.done[i]-t.At)
		}
	}
	sortDurations(single)
	sortDurations(cross)
	res.add("shard.cross_frac", "frac", float64(len(cross))/float64(max(len(cross)+len(single), 1)), int64(len(cross)+len(single)))
	res.add("shard.single_commit_p50_ms", "ms", ms(quantile(single, 0.50)), int64(len(single)))
	res.add("shard.cross_commit_p50_ms", "ms", ms(quantile(cross, 0.50)), int64(len(cross)))
	res.add("shard.pending_coord_max", "count", float64(pendingMax), 0)
	res.add("shard.orphaned_prepares_end", "count", float64(after.orphans), 0)

	// the probes themselves
	res.add("trace.overhead_frac", "frac", tracedCPU/refCPU-1, txns)
	res.add("trace.spans_dropped", "count", float64(dropped), 0)
	res.add("workload.gen_lag_p99_ms", "ms", ms(quantile(st.lag, 0.99)), int64(len(st.lag)))

	path, err := writeTrace(outDir, c, generatorSpans(c, l, from))
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}

	res.attempted = int64(len(in.open))*2 + refLoad.satNext.Load()
	refFailed, why := refLoad.failure(refUnfinished)
	failed, why2 := l.failure(unfinished)
	if failed > 0 {
		why = why2
	}
	if res.failed = refFailed + failed; res.failed > 0 {
		res.violate("%d of %d transactions failed (first: %s)", res.failed, res.attempted, why)
	}
	res.notes = append(res.notes,
		fmt.Sprintf("traced slice %v at %d txn/s: %d update + %d read-only commits, commit p50 %.3f ms (untraced baseline %.3f ms), cpu before the checkpoint round %.1f us/txn (baseline %.1f)",
			span, def.rate, len(st.update), len(st.ro), ms(quantile(st.update, 0.5)), ms(quantile(refStats.update, 0.5)), tracedCPU, refCPU),
		fmt.Sprintf("untraced baseline, window %d: ", def.window)+sat.note(),
		fmt.Sprintf("trace file: %s (fullest span ring held %d of %d spans)", path, ringUsed, len(in.open)*spansPerTxn),
		"receive self time by carried message, all sites (us per update commit / calls):")
	kinds := make([]message.Kind, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return byKind[kinds[i]] > byKind[kinds[j]] })
	for _, k := range kinds {
		res.notes = append(res.notes, fmt.Sprintf("  %-16v %8.2f  %d", k, us(byKind[k])/float64(commits), byKindN[k]))
	}

	microRuns(res, def, c.sites[0].probe.captured, p, dataRoot)
	return res, nil
}

// spansGroups reports whether a write set touches more than one
// replication group.
func spansGroups(c *cluster, writes []message.KV) bool {
	for _, w := range writes[1:] {
		if c.groupOf(w.Key) != c.groupOf(writes[0].Key) {
			return true
		}
	}
	return false
}

// samplePendingCoord polls the sharded engines' in-flight cross-shard
// rounds and returns the largest per-site count seen.
func samplePendingCoord(c *cluster, stop <-chan struct{}) int {
	peak := 0
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return peak
		case <-tick.C:
			for _, s := range c.sites {
				if s.sharded != nil {
					s.host.Do(func() { peak = max(peak, s.sharded.PendingCoord()) })
				}
			}
		}
	}
}

// layerCounters is a reading of the counters the layers export, taken on
// the event loops.
type layerCounters struct {
	stats         []core.Stats // per site; the histograms are shared with the engine, read them only after stop
	dropped       int64
	flushMean     float64 // livenet: envelopes per socket flush, since boot
	socketFlushes int64
	pipelines     int     // commit pipelines in the cluster
	fsyncs        int64   // commitpipe: fsyncs over all pipelines
	batchMean     float64 // commitpipe: records per fsync, since boot
	fsync         *metrics.Histogram
	walBytes      int64
	ckpts         int
	ckptBytes     int64
	segsTruncated int
	ckptLat       *metrics.Histogram
	orphans       int
}

var flushBatchRE = regexp.MustCompile(`^n=(\d+) mean=([0-9.]+)`)

func readLayerCounters(c *cluster) layerCounters {
	lc := layerCounters{fsync: metrics.NewHistogram(1 << 16), ckptLat: metrics.NewHistogram(0)}
	var flushSum, batchSum float64
	for _, s := range c.sites {
		_, _, d := s.host.Counters()
		lc.dropped += d
		for _, ps := range s.host.PeerStats() {
			// The per-peer batch histogram is exported only as its summary.
			if m := flushBatchRE.FindStringSubmatch(ps.FlushBatch); m != nil && ps.Peer != s.id {
				n, _ := strconv.ParseInt(m[1], 10, 64) // digits by the pattern
				mean, _ := strconv.ParseFloat(m[2], 64)
				lc.socketFlushes += n
				flushSum += mean * float64(n)
			}
		}
		s.host.Do(func() {
			st := *s.engine.Stats()
			st.AbortsByReason = make(map[core.AbortReason]int64, len(s.engine.Stats().AbortsByReason))
			for r, n := range s.engine.Stats().AbortsByReason {
				st.AbortsByReason[r] = n
			}
			lc.stats = append(lc.stats, st)
			lc.ckptLat.Merge(st.CheckpointLatency)
			if s.sharded != nil {
				lc.orphans += s.sharded.OrphanedPrepares()
			}
			for _, g := range s.groups() {
				p := s.pipeline(g)
				lc.pipelines++
				lc.fsyncs += p.Flushes
				batchSum += float64(p.BatchSizes.Mean()) * float64(p.BatchSizes.Count())
				lc.fsync.Merge(p.FsyncLatency)
				if w := s.store(g).WAL(); w != nil {
					lc.walBytes += w.AppendedBytes()
				}
				cs := s.checkpointer(g).Stats()
				lc.ckpts += cs.Checkpoints
				lc.ckptBytes = max(lc.ckptBytes, cs.LastBytes)
				lc.segsTruncated += cs.SegmentsTruncated
			}
		})
	}
	if lc.socketFlushes > 0 {
		lc.flushMean = flushSum / float64(lc.socketFlushes)
	}
	if lc.fsyncs > 0 {
		lc.batchMean = batchSum / float64(lc.fsyncs)
	}
	return lc
}

// spanSamples are the waits the engines' own span rings recorded inside
// the traced slice.
type spanSamples struct {
	orderWait  []time.Duration // commit-req -> atomic delivery at the origin
	certWait   []time.Duration
	ackWait    []time.Duration
	lockWait   []time.Duration
	applyToAck []time.Duration // apply -> committed outcome at the home site
}

// analyzeSpans walks each site's ring once, oldest first, keeping spans
// that started inside the traced slice.
func analyzeSpans(c *cluster, sliceStart []time.Duration) spanSamples {
	var out spanSamples
	for i, s := range c.sites {
		reqAt := map[message.TxnID]time.Duration{}
		applyAt := map[message.TxnID]time.Duration{}
		for _, sp := range s.tracer.Spans() {
			if sp.Start < sliceStart[i] {
				continue
			}
			home := sp.Trace.Site == s.id
			switch sp.Kind {
			case trace.KindCommitReq:
				reqAt[sp.Trace] = sp.Start
			case trace.KindBcastDeliver:
				if at, ok := reqAt[sp.Trace]; ok && message.Class(sp.Extra) == message.ClassAtomic {
					out.orderWait = append(out.orderWait, sp.Start-at)
					delete(reqAt, sp.Trace)
				}
			case trace.KindCertWait:
				out.certWait = append(out.certWait, sp.Duration())
			case trace.KindAckWait:
				out.ackWait = append(out.ackWait, sp.Duration())
			case trace.KindLockWait:
				out.lockWait = append(out.lockWait, sp.Duration())
			case trace.KindApply:
				if home {
					applyAt[sp.Trace] = sp.Start
				}
			case trace.KindOutcome:
				if at, ok := applyAt[sp.Trace]; ok && sp.Extra == 1 {
					out.applyToAck = append(out.applyToAck, sp.End-at)
					delete(applyAt, sp.Trace)
				}
			}
		}
	}
	for _, d := range [][]time.Duration{out.orderWait, out.certWait, out.ackWait, out.lockWait, out.applyToAck} {
		sortDurations(d)
	}
	return out
}

// generatorSpans renders the generator's view of each measured open-loop
// transaction (due -> issued -> outcome) as boundary spans on its home
// site's clock.
func generatorSpans(c *cluster, l *load, from time.Duration) [][]benchSpan {
	out := make([][]benchSpan, len(c.sites))
	offset := make([]time.Duration, len(c.sites)) // site clock minus bench clock
	for i, s := range c.sites {
		offset[i] = s.host.Now() - l.now()
	}
	for i := range l.in.open {
		t := &l.in.open[i]
		if t.At < from || l.done[i] == 0 {
			continue
		}
		off := offset[t.Site]
		out[t.Site] = append(out[t.Site], benchSpan{kind: spanTxn, txn: l.ids[i], peer: trace.NoPeer,
			start: t.At + off, mid: l.issued[i] + off, end: l.done[i] + off})
	}
	return out
}
