// Command replicadb runs one replica of the broadcast-based replicated
// database as a networked process: the chosen replication engine on top of
// the TCP runtime, an optional write-ahead log, and a line-oriented client
// port.
//
// A three-site cluster on one machine:
//
//	replicadb -id 0 -peers 0=:7000,1=:7001,2=:7002 -client :8000 -proto causal &
//	replicadb -id 1 -peers 0=:7000,1=:7001,2=:7002 -client :8001 -proto causal &
//	replicadb -id 2 -peers 0=:7000,1=:7001,2=:7002 -client :8002 -proto causal &
//	replicacli -addr :8000 SET user:1=ada
//	replicacli -addr :8002 GET user:1
//
// Client protocol (one request per line, one response line — except TRACE,
// whose response is multi-line and ends with a lone "."):
//
//	GET k1 [k2 ...]          read-only transaction
//	SET k1=v1 [k2=v2 ...]    update transaction
//	STATS                    engine counters plus per-peer transport counters
//	TRACE                    dump this site's span ring as JSONL (see docs/TRACING.md)
//
// Partial replication (-proto atomic only): -shards splits the keyspace
// into that many replication groups, each replicated by -rf sites chosen
// deterministically from the static site set. A site's -wal directory then
// holds one segmented log (plus checkpoints) per local group, g0/, g1/,
// ..., recovered independently on restart; walcheck understands the same
// layout. Reads must be issued at a site replicating the key's group —
// a GET elsewhere reports the key as not replicated. Writes route
// automatically: single-group transactions forward to the group, and
// multi-group transactions run the cross-shard certification round.
//
//	replicadb -id 0 -peers ... -proto atomic -shards 2 -rf 2 -wal wal0/
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/broadcast"
	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/core"
	"repro/internal/livenet"
	"repro/internal/message"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "replicadb:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id         = flag.Int("id", 0, "site id")
		peers      = flag.String("peers", "", "comma-separated id=host:port for every site")
		proto      = flag.String("proto", "causal", "replication protocol: reliable|causal|atomic|baseline|quorum")
		client     = flag.String("client", "", "client listen address (host:port)")
		walPath    = flag.String("wal", "", "write-ahead log: a directory for a segmented log, or a single file (optional)")
		walSegMB   = flag.Int64("wal-seg-bytes", storage.DefaultSegmentBytes, "segment rotation threshold in bytes (directory logs)")
		ckptIval   = flag.Duration("checkpoint-interval", 0, "periodic checkpoint interval (0 disables the timer trigger; requires a directory -wal)")
		ckptBytes  = flag.Int64("checkpoint-bytes", 0, "checkpoint once this many bytes were appended to the WAL since the last one (0 disables the bytes trigger)")
		ckptRetain = flag.Int("checkpoint-retain", 3, "completed checkpoints to keep on disk")
		heartbeat  = flag.Duration("heartbeat", 25*time.Millisecond, "protocol C null-broadcast interval")
		atomicMode = flag.String("atomic-mode", "sequencer", "protocol A total-order mode: sequencer|isis|batch")
		batchWin   = flag.Duration("batch-window", time.Millisecond, "batch orderer: accumulation window before a batch seals")
		batchMsgs  = flag.Int("batch-msgs", 64, "batch orderer: message budget that seals a batch early")
		dialRetry  = flag.Duration("dial-retry", 500*time.Millisecond, "initial peer reconnect backoff (doubles with jitter)")
		sendQueue  = flag.Int("send-queue", 1024, "per-peer outgoing message buffer")
		shards     = flag.Int("shards", 1, "partial replication: number of replication groups (1 = full replication; requires -proto atomic)")
		rf         = flag.Int("rf", 0, "sites replicating each group under -shards (0 = every site)")
		member     = flag.Bool("membership", false, "enable failure detection and majority views")
		fdIval     = flag.Duration("fd-interval", 500*time.Millisecond, "sharded: failure-detector heartbeat interval; enables cross-shard coordinator failover (0 disables)")
		fdTimeout  = flag.Duration("fd-timeout", 2500*time.Millisecond, "sharded: silence before a peer is suspected and its prepares terminated")
		traceBuf   = flag.Int("trace-buf", trace.DefaultCap, "per-site span ring capacity for TRACE (0 disables tracing)")
		verbose    = flag.Bool("v", false, "log runtime diagnostics")
	)
	flag.Parse()

	addrs, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	if _, ok := addrs[message.SiteID(*id)]; !ok {
		return fmt.Errorf("own id %d missing from -peers", *id)
	}

	var logger *log.Logger
	if *verbose {
		logger = log.New(os.Stderr, "", log.Lmicroseconds)
	}
	host, err := livenet.New(livenet.Config{
		ID:        message.SiteID(*id),
		Addrs:     addrs,
		Logger:    logger,
		DialRetry: *dialRetry,
		SendQueue: *sendQueue,
	})
	if err != nil {
		return err
	}

	ecfg := core.Config{Membership: *member}
	var tr *trace.Tracer
	if *traceBuf > 0 {
		tr = trace.New(message.SiteID(*id), *traceBuf, host.Now)
		ecfg.Tracer = tr
		host.SetTracer(tr)
	}
	var ring *shard.Ring
	if *shards > 1 {
		if *proto != "atomic" {
			return fmt.Errorf("-shards requires -proto atomic (got %q)", *proto)
		}
		ecfg.Shard = &shard.Config{Groups: *shards, RF: *rf}
		// Coordinator failover: suspected coordinators' orphaned prepares
		// are terminated by the lowest live member of each prepared group.
		ecfg.FailureInterval = *fdIval
		ecfg.FailureTimeout = *fdTimeout
		ring, err = shard.NewRing(*ecfg.Shard, len(addrs))
		if err != nil {
			return err
		}
	} else if *rf > 0 {
		return fmt.Errorf("-rf needs -shards > 1")
	}
	// Group commit is on wherever there is a log (a pipeline without one
	// ignores the policy); > 1 means on, the magnitude is unread.
	ecfg.GroupCommit = commitpipe.Policy{MaxBatch: 2}
	ckptEnabled := *ckptIval > 0 || *ckptBytes > 0
	var wal *storage.WAL
	var groupWALs map[message.GroupID]*storage.WAL
	if *walPath != "" && ring != nil {
		// Per-group durability: one segmented WAL (plus checkpoints when
		// enabled) per local replication group, under <wal>/g<N>/, each
		// recovered independently so a restarted site resumes every group
		// from its own durable floor.
		if fi, serr := os.Stat(*walPath); serr == nil && !fi.IsDir() {
			return fmt.Errorf("partial replication requires a directory -wal (got file %s)", *walPath)
		}
		groupWALs = make(map[message.GroupID]*storage.WAL)
		stores := make(map[message.GroupID]*storage.Store)
		stacks := make(map[message.GroupID]*message.StackSync)
		pols := make(map[message.GroupID]checkpoint.Policy)
		for _, g := range ring.SiteGroups(message.SiteID(*id)) {
			gdir := filepath.Join(*walPath, g.String())
			var st *storage.Store
			if ckptEnabled {
				st2, w2, info, rerr := checkpoint.Recover(gdir, *walSegMB)
				if rerr != nil {
					return fmt.Errorf("recover group %s: %w", g, rerr)
				}
				st, groupWALs[g], stacks[g] = st2, w2, info.Stack
				pols[g] = checkpoint.Policy{
					Dir:         gdir,
					Interval:    *ckptIval,
					MaxWALBytes: *ckptBytes,
					Retain:      *ckptRetain,
				}
				if info.CheckpointIndex > 0 {
					log.Printf("site %d group %s loaded checkpoint %s (index %d), replayed %d wal records (skipped %d below the floor)",
						*id, g, info.CheckpointPath, info.CheckpointIndex, info.Replayed, info.Skipped)
				}
			} else {
				var rerr error
				st, groupWALs[g], rerr = storage.RecoverSegments(gdir, *walSegMB)
				if rerr != nil {
					return fmt.Errorf("recover group %s: %w", g, rerr)
				}
			}
			stores[g] = st
			if st.Applied() > 0 {
				log.Printf("site %d group %s recovered %d keys up to order index %d from %s",
					*id, g, st.Len(), st.Applied(), gdir)
			}
		}
		ecfg.GroupWAL = func(g message.GroupID) *storage.WAL { return groupWALs[g] }
		ecfg.GroupInitialStore = func(g message.GroupID) *storage.Store { return stores[g] }
		ecfg.GroupInitialStack = func(g message.GroupID) *message.StackSync { return stacks[g] }
		if ckptEnabled {
			ecfg.GroupCheckpoint = func(g message.GroupID) checkpoint.Policy { return pols[g] }
		}
	} else if *walPath != "" {
		var st *storage.Store
		if fi, serr := os.Stat(*walPath); serr == nil && !fi.IsDir() {
			// Legacy single-file log: replay it (truncating any torn tail so
			// appends resume on the valid prefix) and keep appending to the
			// same file.
			if ckptEnabled {
				return fmt.Errorf("checkpointing requires a directory -wal (got file %s)", *walPath)
			}
			var ferr error
			st, wal, ferr = storage.RecoverFile(*walPath)
			if ferr != nil {
				return fmt.Errorf("recover wal: %w", ferr)
			}
		} else if ckptEnabled {
			// Checkpoint-aware recovery: load the newest valid checkpoint,
			// replay only the WAL suffix above it, and resume the broadcast
			// stack's frontiers from the checkpoint.
			st2, w2, info, rerr := checkpoint.Recover(*walPath, *walSegMB)
			if rerr != nil {
				return fmt.Errorf("recover checkpoint+wal: %w", rerr)
			}
			st, wal = st2, w2
			ecfg.InitialStack = info.Stack
			ecfg.Checkpoint = checkpoint.Policy{
				Dir:         *walPath,
				Interval:    *ckptIval,
				MaxWALBytes: *ckptBytes,
				Retain:      *ckptRetain,
			}
			if info.CheckpointIndex > 0 {
				log.Printf("site %d loaded checkpoint %s (index %d), replayed %d wal records (skipped %d below the floor)",
					*id, info.CheckpointPath, info.CheckpointIndex, info.Replayed, info.Skipped)
			}
		} else {
			// Segmented directory log (the default for new deployments):
			// replay every segment so a restarted replica resumes from its
			// durable state, then append to the highest segment, rotating
			// at -wal-seg-bytes.
			var rerr error
			st, wal, rerr = storage.RecoverSegments(*walPath, *walSegMB)
			if rerr != nil {
				return fmt.Errorf("recover wal: %w", rerr)
			}
		}
		if st.Applied() > 0 {
			log.Printf("site %d recovered %d keys up to commit index %d from %s",
				*id, st.Len(), st.Applied(), *walPath)
		}
		ecfg.WAL = wal
		ecfg.InitialStore = st
	} else if ckptEnabled {
		return fmt.Errorf("checkpointing requires -wal")
	}
	var engine core.Engine
	switch *proto {
	case "reliable":
		engine = core.NewReliable(host, ecfg)
	case "causal":
		ecfg.CausalHeartbeat = *heartbeat
		engine = core.NewCausal(host, ecfg)
	case "atomic":
		switch *atomicMode {
		case "sequencer":
			ecfg.AtomicMode = broadcast.AtomicSequencer
		case "isis":
			ecfg.AtomicMode = broadcast.AtomicIsis
		case "batch":
			ecfg.AtomicMode = broadcast.AtomicBatch
			ecfg.AtomicBatchWindow = *batchWin
			ecfg.AtomicBatchMsgs = *batchMsgs
		default:
			return fmt.Errorf("unknown atomic mode %q", *atomicMode)
		}
		if ecfg.Shard != nil {
			se, serr := core.NewSharded(host, ecfg)
			if serr != nil {
				return serr
			}
			engine = se
		} else {
			engine = core.NewAtomic(host, ecfg)
		}
	case "baseline":
		engine = core.NewBaseline(host, ecfg)
	case "quorum":
		engine = core.NewQuorum(host, ecfg)
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}
	host.Bind(engine)
	if err := host.Start(); err != nil {
		return err
	}
	defer host.Close()
	sharded, _ := engine.(*core.ShardedEngine)
	if sharded != nil {
		log.Printf("site %d serving atomic replication over %d groups (rf %d) on %s; local groups %v",
			*id, ring.Groups(), len(ring.Members(0)), host.Addr(), sharded.LocalGroups())
	} else {
		log.Printf("site %d serving %s replication on %s", *id, *proto, host.Addr())
	}

	if *client != "" {
		ln, lerr := net.Listen("tcp", *client)
		if lerr != nil {
			return fmt.Errorf("client listen: %w", lerr)
		}
		defer ln.Close()
		log.Printf("site %d client port on %s", *id, ln.Addr())
		r := &replica{host: host, engine: engine, sharded: sharded, tracer: tr, proto: *proto, sites: len(addrs)}
		if ring != nil {
			r.groups = ring.Groups()
		}
		go r.serveClients(ln)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("site %d shutting down", *id)
	if len(groupWALs) > 0 {
		// Flush every local group's open group-commit batch (releasing its
		// deferred client acknowledgements), then stop the host — which
		// joins the syncer — before closing the logs under it.
		host.Do(func() { sharded.FlushPipelines() })
		host.Close()
		for _, g := range sharded.LocalGroups() {
			if w := groupWALs[g]; w != nil {
				if cerr := w.Close(); cerr != nil {
					log.Printf("site %d group %s wal close: %v", *id, g, cerr)
				}
			}
		}
	} else if wal != nil {
		// Flush the open group-commit batch (releasing its deferred client
		// acknowledgements), then stop the host — which joins the syncer —
		// before closing the log under it.
		host.Do(func() { engine.Pipeline().Flush() })
		host.Close()
		if cerr := wal.Close(); cerr != nil {
			log.Printf("site %d wal close: %v", *id, cerr)
		}
	}
	return nil
}

func parsePeers(s string) (map[message.SiteID]string, error) {
	out := make(map[message.SiteID]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %w", id, err)
		}
		out[message.SiteID(n)] = addr
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-peers is required")
	}
	return out, nil
}

// replica bundles what the client protocol needs: the transport, the
// engine, and the span ring the TRACE command dumps.
type replica struct {
	host    *livenet.Host
	engine  core.Engine
	sharded *core.ShardedEngine // non-nil under partial replication
	tracer  *trace.Tracer
	proto   string
	sites   int
	groups  int // replication groups (0 or 1 = full replication)
}

func (r *replica) serveClients(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go r.handleClient(conn)
	}
}

func (r *replica) handleClient(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		resp := r.execute(sc.Text())
		if _, err := fmt.Fprintln(conn, resp); err != nil {
			return
		}
	}
}

// execute runs one client command line against the engine.
func (r *replica) execute(line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "ERR empty command"
	}
	switch strings.ToUpper(fields[0]) {
	case "GET":
		if len(fields) < 2 {
			return "ERR GET needs at least one key"
		}
		spec := livenet.TxnSpec{ReadOnly: true}
		for _, k := range fields[1:] {
			spec.Reads = append(spec.Reads, message.Key(k))
		}
		res, err := livenet.ExecuteTxn(r.host, r.engine, spec, 10*time.Second)
		if err != nil {
			return "ERR " + err.Error()
		}
		if !res.Committed {
			return "ABORTED " + res.Reason
		}
		parts := make([]string, 0, len(spec.Reads))
		for _, k := range spec.Reads {
			v := res.Values[k]
			if v == nil {
				parts = append(parts, string(k)+"=<nil>")
				continue
			}
			parts = append(parts, fmt.Sprintf("%s=%s", k, v))
		}
		return "OK " + strings.Join(parts, " ")
	case "SET":
		if len(fields) < 2 {
			return "ERR SET needs at least one k=v"
		}
		spec := livenet.TxnSpec{}
		for _, kv := range fields[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Sprintf("ERR bad pair %q", kv)
			}
			spec.Writes = append(spec.Writes, message.KV{Key: message.Key(k), Value: message.Value(v)})
		}
		res, err := livenet.ExecuteTxn(r.host, r.engine, spec, 10*time.Second)
		if err != nil {
			return "ERR " + err.Error()
		}
		if !res.Committed {
			return "ABORTED " + res.Reason
		}
		return "OK committed"
	case "STATS":
		var s *core.Stats
		var keys int
		var pipe, ckpt, sharded string
		r.host.Do(func() {
			s = r.engine.Stats()
			keys = r.engine.Store().Len()
			pipe = r.engine.Pipeline().Summary()
			if r.sharded != nil {
				// Per-group progress plus the cross-shard leak oracle: keys
				// and last processed order index of every local group.
				parts := make([]string, 0, len(r.sharded.LocalGroups())+1)
				for _, g := range r.sharded.LocalGroups() {
					parts = append(parts, fmt.Sprintf("%s_keys=%d %s_idx=%d",
						g, r.sharded.GroupStore(g).Len(), g, r.sharded.GroupCertIndex(g)))
				}
				parts = append(parts, fmt.Sprintf("pending_coord=%d", r.sharded.PendingCoord()))
				// Failover health: peers this site currently suspects and
				// prepares stranded by a suspected coordinator (nonzero
				// steady-state means a termination round is stuck).
				parts = append(parts, fmt.Sprintf("suspects=%d orphaned_prepares=%d",
					len(r.sharded.Suspects()), r.sharded.OrphanedPrepares()))
				sharded = " " + strings.Join(parts, " ")
			}
			if cp := r.engine.Checkpointer(); cp != nil {
				cs := cp.Stats()
				age := time.Duration(0)
				if cs.Checkpoints > 0 {
					age = r.host.Now() - cs.LastUnix
				}
				ckpt = fmt.Sprintf(" ckpt_count=%d ckpt_index=%d ckpt_bytes=%d ckpt_age=%s segs_truncated=%d state_chunks=%d state_bytes=%d",
					cs.Checkpoints, cs.LastIndex, cs.LastBytes, age.Round(time.Millisecond),
					cs.SegmentsTruncated, s.StateChunksSent, s.StateBytesSent)
			}
		})
		sent, recv, dropped := r.host.Counters()
		return fmt.Sprintf("OK begun=%d committed=%d ro=%d aborted=%d keys=%d sent=%d recv=%d dropped=%d %s %s%s%s",
			s.Begun, s.Committed, s.ReadOnlyCommitted, s.Aborted, keys, sent, recv, dropped,
			pipe, r.host.TransportSummary(), ckpt, sharded)
	case "TRACE":
		if r.tracer == nil {
			return "ERR tracing disabled (-trace-buf 0)"
		}
		var sb strings.Builder
		meta := trace.Meta{Proto: r.proto, Sites: r.sites, Groups: r.groups}
		if err := trace.WriteTracer(&sb, meta, r.tracer); err != nil {
			return "ERR " + err.Error()
		}
		// Multi-line response: JSONL dump terminated by a lone ".".
		return sb.String() + "."
	default:
		return fmt.Sprintf("ERR unknown command %q", fields[0])
	}
}
