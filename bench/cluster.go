package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broadcast"
	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/livenet"
	"repro/internal/message"
	"repro/internal/sgraph"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Durability settings of the WAL-backed workloads: replicadb's defaults for
// group commit and checkpoint retention, and 4 MiB segments so a run seals
// (and a checkpoint truncates) several segments instead of staying inside
// replicadb's 64 MiB default.
//
// Checkpoints are taken on the benchmark's schedule (cluster.checkpointAll),
// not by replicadb's interval or log-bytes triggers. A checkpoint holds a
// site's event loop for hundreds of milliseconds; triggered by log bytes,
// the three sites' stalls land at different moments in every run, one round
// disturbs two seconds of traffic, and at saturation a third of the time is
// spent inside them, which put the spread of the tail and saturation metrics
// between 0.2 and 1.0 of their medians. Scheduled rounds cost the same work
// at the same place in every run.
const (
	walBatch     = 64
	walFlush     = 2 * time.Millisecond
	walSegBytes  = 4 << 20
	ckptRetain   = 3
	sendQueue    = 1 << 16
	fdInterval   = 500 * time.Millisecond
	fdTimeout    = 2500 * time.Millisecond
	spansPerTxn  = 96  // engine span ring: generous per-site budget per traced transaction
	preloadBatch = 128 // writes per preload transaction
)

// site is one replica: the wiring of cmd/replicadb/main.go minus the client
// port, plus the benchmark's measurement hooks around it.
type site struct {
	id      message.SiteID
	host    *livenet.Host
	engine  core.Engine
	sharded *core.ShardedEngine // non-nil for sharded-cross
	ln      *countingListener
	dir     string // WAL + checkpoint root ("" without durability)
	wals    []*storage.WAL
	tracer  *trace.Tracer // nil on untraced runs
	probe   *siteProbe    // nil on untraced runs

	// work feeds this site's issuer goroutine with transaction indices.
	// Completion callbacks run on event loops and must never block, so the
	// buffer holds several seconds of open-loop backlog and sends into it
	// are non-blocking (a full queue fails the transaction instead).
	work chan int32
}

// cluster is n sites in this process, connected over loopback TCP.
type cluster struct {
	def   *workloadDef
	dir   string
	sites []*site
	ring  *shard.Ring      // nil under full replication
	rec   *sgraph.Recorder // nil on untraced runs

	// The load generator's issuer goroutines, one per site; stop closes
	// done and waits for them. The work queues are never closed, so a late
	// retry timer finds a buffer, not a panic.
	issuers sync.WaitGroup
	done    chan struct{}
}

// countingListener counts the bytes every accepted connection reads: the
// wire cost of the cluster's own traffic, measured at the socket.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// boot starts def's cluster with its data under dir. With traced set, every
// engine gets a span ring and shares one serialization-graph recorder, and
// the benchmark's own boundary probes wrap each site's runtime and node.
// tracedTxns sizes the span rings.
func boot(def *workloadDef, dir string, traced bool, tracedTxns int) (*cluster, error) {
	c := &cluster{def: def, dir: dir, done: make(chan struct{})}
	addrs := make(map[message.SiteID]string, def.sites)
	lns := make([]*countingListener, def.sites)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = &countingListener{Listener: ln}
		addrs[message.SiteID(i)] = ln.Addr().String()
	}
	var err error
	if c.ring, err = def.ring(); err != nil {
		return nil, err
	}
	if traced {
		c.rec = sgraph.NewRecorder()
	}
	for i := 0; i < def.sites; i++ {
		s, err := c.bootSite(message.SiteID(i), addrs, lns[i], traced, tracedTxns)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.stop()
			c.close()
			return nil, fmt.Errorf("site %d: %w", i, err)
		}
		c.sites = append(c.sites, s)
	}
	return c, nil
}

func (c *cluster) bootSite(id message.SiteID, addrs map[message.SiteID]string, ln *countingListener, traced bool, tracedTxns int) (*site, error) {
	def := c.def
	s := &site{id: id, ln: ln, work: make(chan int32, 1<<16)}
	host, err := livenet.New(livenet.Config{ID: id, Addrs: addrs, Listener: ln, SendQueue: sendQueue})
	if err != nil {
		return nil, err
	}
	s.host = host
	ecfg := core.Config{Recorder: c.rec}
	if traced {
		s.tracer = trace.New(id, tracedTxns*spansPerTxn, host.Now)
		ecfg.Tracer = s.tracer
		host.SetTracer(s.tracer)
		s.probe = newSiteProbe(id, host)
	}
	if def.durable {
		s.dir = filepath.Join(c.dir, id.String())
		ecfg.GroupCommit = commitpipe.Policy{MaxBatch: walBatch, MaxDelay: walFlush}
		pol := func(dir string) checkpoint.Policy {
			return checkpoint.Policy{Dir: dir, Retain: ckptRetain}
		}
		if c.ring != nil {
			stores := make(map[message.GroupID]*storage.Store)
			wals := make(map[message.GroupID]*storage.WAL)
			for _, g := range c.ring.SiteGroups(id) {
				st, w, _, rerr := checkpoint.Recover(filepath.Join(s.dir, g.String()), walSegBytes)
				if rerr != nil {
					return nil, fmt.Errorf("recover group %s: %w", g, rerr)
				}
				stores[g], wals[g] = st, w
				s.wals = append(s.wals, w)
			}
			ecfg.GroupWAL = func(g message.GroupID) *storage.WAL { return wals[g] }
			ecfg.GroupInitialStore = func(g message.GroupID) *storage.Store { return stores[g] }
			ecfg.GroupCheckpoint = func(g message.GroupID) checkpoint.Policy {
				return pol(filepath.Join(s.dir, g.String()))
			}
		} else {
			st, w, _, rerr := checkpoint.Recover(s.dir, walSegBytes)
			if rerr != nil {
				return nil, fmt.Errorf("recover: %w", rerr)
			}
			s.wals = append(s.wals, w)
			ecfg.WAL, ecfg.InitialStore = w, st
			ecfg.Checkpoint = pol(s.dir)
		}
	}
	var rt env.Runtime = host
	if s.probe != nil {
		rt = &probedRuntime{Host: host, p: s.probe}
	}
	switch {
	case def.proto == "reliable":
		s.engine = core.NewReliable(rt, ecfg)
	case c.ring != nil:
		ecfg.AtomicMode = broadcast.AtomicSequencer
		ecfg.Shard = &shard.Config{Groups: def.shards, RF: def.rf}
		ecfg.FailureInterval, ecfg.FailureTimeout = fdInterval, fdTimeout
		se, serr := core.NewSharded(rt, ecfg)
		if serr != nil {
			return nil, serr
		}
		s.engine, s.sharded = se, se
	default:
		ecfg.AtomicMode = broadcast.AtomicSequencer
		s.engine = core.NewAtomic(rt, ecfg)
	}
	var node env.Node = s.engine
	if s.probe != nil {
		node = &probedNode{Node: s.engine, p: s.probe}
	}
	host.Bind(node)
	if err := host.Start(); err != nil {
		return nil, err
	}
	return s, nil
}

// do runs fn on the site's event loop, through the probe when there is one.
func (s *site) do(fn func()) {
	if s.probe != nil {
		s.probe.do(fn)
		return
	}
	s.host.Do(fn)
}

// groups lists the replication groups the site holds (one pseudo-group 0
// under full replication).
func (s *site) groups() []message.GroupID {
	if s.sharded != nil {
		return s.sharded.LocalGroups()
	}
	return []message.GroupID{0}
}

// store, pipeline and checkpointer resolve a group's layer objects on
// either engine shape. Call them on the event loop.
func (s *site) store(g message.GroupID) *storage.Store {
	if s.sharded != nil {
		return s.sharded.GroupStore(g)
	}
	return s.engine.Store()
}

func (s *site) pipeline(g message.GroupID) *commitpipe.Pipeline {
	if s.sharded != nil {
		return s.sharded.GroupPipeline(g)
	}
	return s.engine.Pipeline()
}

func (s *site) checkpointer(g message.GroupID) *checkpoint.Checkpointer {
	if s.sharded != nil {
		return s.sharded.GroupCheckpointer(g)
	}
	return s.engine.Checkpointer()
}

// groupDir is where group g's log and checkpoints live at this site.
func (s *site) groupDir(g message.GroupID) string {
	if s.sharded != nil {
		return filepath.Join(s.dir, g.String())
	}
	return s.dir
}

// members lists the sites replicating group g.
func (c *cluster) members(g message.GroupID) []*site {
	if c.ring == nil {
		return c.sites
	}
	var out []*site
	for _, id := range c.ring.Members(g) {
		out = append(out, c.sites[id])
	}
	return out
}

func (c *cluster) groupCount() int {
	if c.ring == nil {
		return 1
	}
	return c.ring.Groups()
}

func (c *cluster) groupOf(k message.Key) message.GroupID {
	if c.ring == nil {
		return 0
	}
	return c.ring.GroupOf(k)
}

// checkpointAll takes one checkpoint of every group at every site, all
// sites at once, and returns when the last has finished.
func (c *cluster) checkpointAll() {
	var wg sync.WaitGroup
	for _, s := range c.sites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.host.Do(func() {
				for _, g := range s.groups() {
					s.checkpointer(g).Run()
				}
			})
		}()
	}
	wg.Wait()
}

// keysByGroup lists the workload's keys k0..k<keys-1> under the replication
// group that holds each.
func (c *cluster) keysByGroup() [][]message.Key {
	out := make([][]message.Key, c.groupCount())
	for i := 0; i < c.def.keys; i++ {
		k := message.Key(fmt.Sprintf("k%d", i))
		out[c.groupOf(k)] = append(out[c.groupOf(k)], k)
	}
	return out
}

// stop halts every host without flushing the commit pipelines: what is on
// disk afterwards is exactly what was fsynced, which the durability check
// relies on.
func (c *cluster) stop() {
	for _, s := range c.sites {
		s.host.Close()
	}
	close(c.done)
	c.issuers.Wait()
}

// close releases the logs and removes the cluster's data. Call after stop.
func (c *cluster) close() {
	for _, s := range c.sites {
		for _, w := range s.wals {
			w.Close() // the data directory is deleted next; nothing is recovered from a failed close
		}
	}
	os.RemoveAll(c.dir)
}
