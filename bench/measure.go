package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one measured value: its name, unit, and how many samples it
// summarizes (0 for counters and ratios that have no sample set).
type metric struct {
	name  string
	unit  string
	value float64
	n     int64
}

// runResult is what one run of one workload yields.
type runResult struct {
	workload   string
	traced     bool
	metrics    []metric
	attempted  int64
	failed     int64
	violations []string
	notes      []string // human-readable extras: cost table, trace path
}

func (r *runResult) add(name, unit string, value float64, n int64) {
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

func (r *runResult) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *runResult) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// plan is the length of every phase of a run. A run of `seconds` measures
// an open phase of five eighths and a saturation phase of three eighths of
// that (the open phase's metrics need fewer seconds to settle than the
// closed loop's); warm-up and set-up come on top. The traced run uses shorter slices,
// because its spans are kept in memory.
type plan struct {
	setups     int           // set-ups per untraced run; setup_s is their median
	warm       time.Duration // open loop running, nothing measured
	open       time.Duration
	sat        time.Duration
	ramp       time.Duration // closed loop: window fill, excluded from the measured interval
	tracedWarm time.Duration
	tracedSpan time.Duration
	tracedSat  time.Duration // closed loop of the traced run's untraced baseline
	solo       time.Duration // one-site closed loop of the micro-runs
	micro      time.Duration // each in-memory micro-run
}

func planFor(seconds int) plan {
	total := time.Duration(seconds) * time.Second
	open := total * 5 / 8
	return plan{
		setups:     7,
		warm:       2 * time.Second,
		open:       open,
		sat:        total - open,
		ramp:       min(500*time.Millisecond, (total-open)/4),
		tracedWarm: 1500 * time.Millisecond,
		tracedSpan: max(total/8, time.Second),
		tracedSat:  max(total/4, time.Second),
		solo:       max(total/12, time.Second),
		micro:      total / 100,
	}
}

// usage is a reading of the process-wide counters the phases difference.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	wire    int64 // bytes read from the cluster's sockets
	msgs    int64 // envelopes written to peers (loopback excluded)
}

func readUsage(c *cluster) usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs}
	for _, s := range c.sites {
		u.wire += s.ln.bytes.Load()
		for _, ps := range s.host.PeerStats() {
			if ps.Peer != s.id {
				u.msgs += ps.Sent
			}
		}
	}
	return u
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// sampleRSS reads the process's resident set every 100 ms until stop is
// closed, then delivers the samples, in MB.
func sampleRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var samples []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- samples
				return
			case <-tick.C:
				var size, resident int64
				if b, err := os.ReadFile("/proc/self/statm"); err == nil {
					fmt.Sscan(string(b), &size, &resident) // a failed scan leaves 0, which rssMB refuses
				}
				samples = append(samples, float64(resident*int64(os.Getpagesize()))/(1<<20))
			}
		}
	}()
	return out
}

// satMark is a reading of the closed loop's progress, taken where a
// collection cycle ended.
type satMark struct {
	at      time.Time
	commits int64
	cpu     time.Duration
}

func (l *load) satMark() satMark {
	return satMark{time.Now(), l.satCommits.Load(), cpuTime()}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCycles reads the number of completed collection cycles without
// stopping the world.
func gcCycles() uint64 {
	sample := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(sample)
	return sample[0].Value.Uint64()
}

// waitGC returns when the next collection cycle completes, or after limit.
func waitGC(limit time.Duration) {
	n, deadline := gcCycles(), time.Now().Add(limit)
	for gcCycles() == n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

func sortDurations(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// quantile of an ascending sample; 0 when empty.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.9999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// ladder renders a latency sample's quantiles on one line.
func ladder(sorted []time.Duration) string {
	out := "latency ms:"
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		out += fmt.Sprintf(" p%g=%.3f", q*100, ms(quantile(sorted, q)))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// setUp boots def's cluster and preloads it.
func setUp(def *workloadDef, dir string, traced bool, tracedTxns int) (*cluster, error) {
	c, err := boot(def, dir, traced, tracedTxns)
	if err != nil {
		return nil, err
	}
	if err := preload(c); err != nil {
		c.stop()
		c.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return c, nil
}

// sliceWidth is the grain of the bounded latency metrics: the open phase is
// cut into slices of this much due time, each slice yields its own quantile,
// and the metric is the median over the slices. A collection cycle or a
// stolen core slows a few hundred milliseconds of traffic tenfold; when such
// stalls cover about a tenth of a run, the whole run's p90 sits on the edge
// between the two populations and moves by half from one run to the next.
// The median slice stays put until stalls cover half the run.
const sliceWidth = 250 * time.Millisecond

// openStats splits the measured open-loop transactions (due at or after
// from) into update and read-only latencies, due -> acknowledged, and counts
// how many were issued and how many committed on the first try.
type openStats struct {
	update, ro     []time.Duration   // ascending, whole phase
	updateBy, roBy [][]time.Duration // the same per slice of due time; whole slices only
	lag            []time.Duration   // issued minus due, ascending
	issued, first  int64
	updates        int64 // committed update transactions
}

// openStats covers transactions due in [from, until).
func (l *load) openStats(from, until time.Duration) openStats {
	slices := int((until - from) / sliceWidth)
	st := openStats{updateBy: make([][]time.Duration, slices), roBy: make([][]time.Duration, slices)}
	for i := range l.in.open {
		t := &l.in.open[i]
		if t.At < from || l.issued[i] == 0 {
			continue
		}
		st.issued++
		st.lag = append(st.lag, l.issued[i]-t.At)
		if l.done[i] == 0 {
			continue
		}
		if l.tries[i] == 0 {
			st.first++
		}
		lat, k := l.done[i]-t.At, int((t.At-from)/sliceWidth)
		if t.ReadOnly {
			st.ro = append(st.ro, lat)
			if k < slices {
				st.roBy[k] = append(st.roBy[k], lat)
			}
		} else {
			st.update = append(st.update, lat)
			st.updates++
			if k < slices {
				st.updateBy[k] = append(st.updateBy[k], lat)
			}
		}
	}
	sortDurations(st.update)
	sortDurations(st.ro)
	sortDurations(st.lag)
	return st
}

// sliceQuantile is the median over the slices of each slice's q-quantile, in
// milliseconds.
func sliceQuantile(slices [][]time.Duration, q float64) float64 {
	var per []float64
	for _, s := range slices {
		if len(s) > 0 {
			sortDurations(s)
			per = append(per, ms(quantile(s, q)))
		}
	}
	return median(per)
}

// saturation is what one closed-loop phase measured. The counted interval
// starts and ends where a collection cycle ends and is cut at every cycle
// end between: a cycle slows the cluster by a third for a third of its
// period, so a piece that cut one at a random point would read several
// percent off. Each piece is one whole cycle.
type saturation struct {
	marks   []satMark
	commits int64  // update commits over all pieces
	mallocs uint64 // heap objects allocated over all pieces
}

// runSaturation fills l's window, lets it run for sat (the first ramp of it
// uncounted) and stops it; the caller drains.
func runSaturation(c *cluster, l *load, sat, ramp time.Duration) saturation {
	l.startClosed()
	time.Sleep(ramp)
	waitGC(sat / 6)
	s0 := readUsage(c)
	marks := []satMark{{s0.at, l.satCommits.Load(), s0.cpu}}
	enough, limit := s0.at.Add(sat*5/8-ramp), s0.at.Add(sat*5/8-ramp+sat/6)
	for cycles := gcCycles(); ; {
		time.Sleep(2 * time.Millisecond)
		now := time.Now()
		if n := gcCycles(); n != cycles || now.After(limit) {
			cycles = n
			marks = append(marks, l.satMark())
			if now.After(enough) {
				break
			}
		}
	}
	s1 := readUsage(c)
	l.stopClosed()
	return saturation{marks, marks[len(marks)-1].commits - marks[0].commits, s1.mallocs - s0.mallocs}
}

// perCycle lists each piece's update commits per second and CPU
// microseconds per commit. Throughput and CPU per commit are reported as the
// medians of these, which one piece slowed from outside (a stolen core, the
// disk still writing a checkpoint back) does not move.
func (s saturation) perCycle() (cps, cpuPer []float64) {
	for i, m := range s.marks[1:] {
		prev := s.marks[i]
		cps = append(cps, float64(m.commits-prev.commits)/m.at.Sub(prev.at).Seconds())
		cpuPer = append(cpuPer, us(m.cpu-prev.cpu)/float64(max(m.commits-prev.commits, 1)))
	}
	return cps, cpuPer
}

func (s saturation) note() string {
	cps, cpuPer := s.perCycle()
	first, last := s.marks[0], s.marks[len(s.marks)-1]
	return fmt.Sprintf("saturation: update commits/s per collection cycle %.0f (median %.0f), CPU us per commit %.1f (median %.1f); over all cycles together %.0f and %.1f",
		cps, median(cps), cpuPer, median(cpuPer), float64(s.commits)/last.at.Sub(first.at).Seconds(), us(last.cpu-first.cpu)/float64(max(s.commits, 1)))
}

// runUntraced is the run that yields the end-to-end metrics: set-up,
// warm-up, open phase at the workload's fixed rate, saturation phase with
// its fixed window, drain, checks. Nothing is traced.
func runUntraced(def *workloadDef, seed int64, p plan, dataRoot string) (*runResult, error) {
	res := &runResult{workload: def.name}
	in, err := generate(def, seed, p.warm+p.open)
	if err != nil {
		return nil, err
	}
	var c *cluster
	var setups []float64
	for k := 0; k < p.setups; k++ {
		if c != nil {
			c.stop()
			c.close()
		}
		start := time.Now()
		c, err = setUp(def, filepath.Join(dataRoot, fmt.Sprintf("%s-%d", def.name, k)), false, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.close()
	res.add("setup_s", "s", median(setups), int64(p.setups))

	// Each phase starts from a collected heap, as testing.B's runs do: what
	// the discarded set-ups (and, below, the checkpoint round) left
	// behind would otherwise decide when the first cycles fall.
	runtime.GC()
	l := newLoad(c, in)
	sched := l.startOpen()
	time.Sleep(p.warm - l.now())
	u0 := readUsage(c)
	from := l.now() // the open phase counts transactions due from here on
	stopRSS := make(chan struct{})
	rssSamples := sampleRSS(stopRSS)
	<-sched
	unfinished := l.drain()
	u1 := readUsage(c)
	close(stopRSS)
	rss := <-rssSamples

	// One checkpoint round between the phases, on an idle cluster: neither
	// phase's numbers contain a checkpoint stall (the traced run takes its
	// round under load), and recovery below starts from a checkpoint plus
	// the saturation phase's log.
	ckptStart := time.Now()
	c.checkpointAll()
	ckptTook := time.Since(ckptStart)
	runtime.GC()

	sat := runSaturation(c, l, p.sat, p.ramp)
	unfinished += l.drain()
	checkLive(c, res)
	c.stop()
	checkDurable(c, l, res)

	st := l.openStats(from, p.warm+p.open)
	res.add("commit_p50_ms", "ms", sliceQuantile(st.updateBy, 0.50), int64(len(st.update)))
	res.add("commit_p90_ms", "ms", sliceQuantile(st.updateBy, 0.90), int64(len(st.update)))
	res.add("ro_p90_ms", "ms", sliceQuantile(st.roBy, 0.90), int64(len(st.ro)))
	res.add("allocs_per_commit", "count", float64(sat.mallocs)/float64(max(sat.commits, 1)), sat.commits)
	res.add("wire_bytes_per_commit", "B", float64(u1.wire-u0.wire)/float64(max(st.updates, 1)), st.updates)
	res.add("first_try_frac", "frac", float64(st.first)/float64(max(st.issued, 1)), st.issued)
	sort.Float64s(rss)
	if len(rss) == 0 || rss[0] <= 0 {
		return nil, fmt.Errorf("resident set not readable from /proc/self/statm")
	}
	res.add("rss_mb", "MB", median(rss), int64(len(rss)))
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	res.attempted = int64(len(in.open)) + l.satNext.Load()
	var why string
	if res.failed, why = l.failure(unfinished); res.failed > 0 {
		res.violate("%d of %d transactions failed (first: %s)", res.failed, res.attempted, why)
	}
	res.notes = append(res.notes,
		fmt.Sprintf("set-ups took %.3f s", setups),
		fmt.Sprintf("open phase %v at %d txn/s: %d issued, generator lag p99 %.3f ms; saturation %v with window %d: %d update commits",
			p.open, def.rate, st.issued, ms(quantile(st.lag, 0.99)), p.sat, def.window, l.satCommits.Load()),
		sat.note(),
		"whole open phase, update "+ladder(st.update), "whole open phase, read-only "+ladder(st.ro),
		fmt.Sprintf("open phase: commit max %.3f ms, %.2f messages per update commit, %.2f us CPU per transaction; checkpoint round between the phases took %v; peak resident set of the whole run %.0f MB",
			ms(quantile(st.update, 1)), float64(u1.msgs-u0.msgs)/float64(max(st.updates, 1)), us(u1.cpu-u0.cpu)/float64(max(st.issued, 1)), ckptTook.Round(time.Millisecond), peak))
	return res, nil
}
