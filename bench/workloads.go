package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/shard"
	"repro/internal/workload"
)

// workloadDef is one cluster configuration plus the traffic offered to it.
// rate and window are fixed constants, a sixth to a third of the saturation
// throughput measured on the 2-vCPU reference box: parent and change see
// the same offered load, never one re-derived from their own speed.
type workloadDef struct {
	name      string
	sites     int
	proto     string // "atomic" (sequencer) or "reliable"
	shards    int    // > 1 selects core.ShardedEngine
	rf        int
	durable   bool // segmented WAL, fsync, group commit, checkpoints
	keys      int
	reads     int
	writes    int
	valueSize int
	roFrac    float64
	crossFrac float64
	rate      int // open loop: transactions per second over all sites
	window    int // closed loop: transactions outstanding over all sites
}

var workloads = []*workloadDef{
	{
		// The ROADMAP's headline configuration: ordering, certification,
		// commitpipe and storage do most of the work, lockmgr none.
		name: "atomic-durable", sites: 3, proto: "atomic", durable: true,
		keys: 65536, reads: 1, writes: 2, valueSize: 64, roFrac: 0.10,
		rate: 5000, window: 256,
	},
	{
		// 16 messages per commit and a lock acquire at every replica, no
		// log: message, livenet, broadcast (reliable class) and lockmgr do
		// the work. A codec or transport gain shows largest here and a WAL
		// gain must show nothing. Its latency is processor time alone, so
		// the rate is a sixth of saturation: at a third, queueing turned a
		// host that ran 15 % slower into a p90 that read 40 % higher.
		name: "reliable-mem", sites: 3, proto: "reliable",
		keys: 16384, reads: 2, writes: 2, valueSize: 64, roFrac: 0.10,
		rate: 3000, window: 128,
	},
	{
		// The atomic-durable cluster used the other way round: reads queue
		// behind deliveries and on-loop fsyncs, so a write-path gain that
		// lengthens loop hold times shows as a read regression. Larger
		// values move codec cost from per-message to per-byte.
		name: "atomic-readmostly", sites: 3, proto: "atomic", durable: true,
		keys: 16384, reads: 2, writes: 2, valueSize: 512, roFrac: 0.90,
		rate: 16000, window: 256,
	},
	{
		// Shard routing, GroupMsg demultiplexing and the cross-shard
		// vote/decide round: the workload where per-group event loops
		// should gain and a replication-group refactor must change nothing.
		name: "sharded-cross", sites: 4, proto: "atomic", shards: 2, rf: 2, durable: true,
		keys: 65536, reads: 1, writes: 2, valueSize: 64, roFrac: 0.10, crossFrac: 0.10,
		rate: 8000, window: 256,
	},
}

// ring builds the workload's key-to-group ring; nil under full replication.
func (def *workloadDef) ring() (*shard.Ring, error) {
	if def.shards <= 1 {
		return nil, nil
	}
	return shard.NewRing(shard.Config{Groups: def.shards, RF: def.rf}, def.sites)
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// satListLen is how many transactions are generated for the closed loop,
// which cycles through the update transactions among them; with uniform
// keys a repeat is indistinguishable from a new draw.
const satListLen = 1 << 16

// inputs is everything a run feeds the engines, all of it from one
// workload.Generate call on the seed.
type inputs struct {
	open []workload.Txn // sorted by At over [0, span); the open loop's schedule
	sat  []workload.Txn // the closed loop's list: updates only, At unused
	genT time.Duration  // wall time Generate took
}

// generate makes the run's transactions: rate*span arrivals spread over
// span for the open loop, then satListLen more, of which the closed loop
// takes the updates. A read-only transaction costs one local read; a closed
// loop of them saturates the generator's hand-off into the event loop, not
// the cluster, so saturation is measured on the write path alone.
func generate(def *workloadDef, seed int64, span time.Duration) (*inputs, error) {
	nOpen := int(float64(def.rate) * span.Seconds())
	spec := workload.Spec{
		Sites:              def.sites,
		Count:              nOpen + satListLen,
		Window:             span,
		Keys:               def.keys,
		ReadOnlyFraction:   def.roFrac,
		ReadsPerTxn:        def.reads,
		WritesPerTxn:       def.writes,
		ValueSize:          def.valueSize,
		Seed:               seed,
		CrossShardFraction: def.crossFrac,
	}
	var err error
	if spec.Ring, err = def.ring(); err != nil {
		return nil, err
	}
	start := time.Now()
	txns, err := workload.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	in := &inputs{open: txns[:nOpen], genT: time.Since(start)}
	for _, t := range txns[nOpen:] {
		if !t.ReadOnly {
			in.sat = append(in.sat, t)
		}
	}
	sort.SliceStable(in.open, func(i, j int) bool { return in.open[i].At < in.open[j].At })
	return in, nil
}
