// Command failover walks through the paper's availability story: the
// communication layer maintains majority-quorum views, and as long as a
// majority view survives, the replicated database keeps committing.
//
// Timeline demonstrated on a 5-site atomic-broadcast cluster:
//
//  1. healthy cluster commits;
//  2. one site crashes — commits continue (protocol A never waits for the
//     dead site; R and C resume after the view change);
//  3. a partition isolates two sites — the majority side keeps working,
//     the minority side refuses updates rather than diverge;
//  4. the partition heals — the cluster reunifies and commits everywhere.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Protocol A carries each write set inside its totally ordered commit
	// request, so all replication traffic is on that one stream: this is
	// what makes the post-partition state transfer and gap repair below
	// complete.
	cluster, err := repro.New(repro.Options{
		Sites:      5,
		Protocol:   repro.Atomic,
		Membership: true,
		Seed:       9,
	})
	if err != nil {
		return err
	}
	step := func(format string, args ...any) {
		fmt.Printf("[t=%8v] %s\n", cluster.Now().Round(time.Millisecond), fmt.Sprintf(format, args...))
	}

	// 1. Healthy cluster.
	res, err := cluster.Submit(0, repro.NewTxn().Write("epoch", []byte("healthy")))
	if err != nil {
		return err
	}
	step("healthy cluster: write committed=%v in %v", res.Committed, res.Latency)

	// 2. Crash site 4.
	cluster.Crash(4)
	step("site 4 crashed")
	res, err = cluster.Submit(1, repro.NewTxn().Write("epoch", []byte("one-down")))
	if err != nil {
		return err
	}
	step("with 4/5 sites: write committed=%v in %v (no wait for the dead site)", res.Committed, res.Latency)
	if err := cluster.Advance(2 * time.Second); err != nil {
		return err
	}
	step("failure detector + view change settled; view excludes site 4")

	// 3. Partition {0,1} away from {2,3}. With site 4 dead that's 2 vs 2 of
	// the original 5 — neither side alone is a majority of 5, so reunify
	// sites 2,3 with... keep 0 alone instead: {0} vs {1,2,3} = majority 3/5.
	cluster.Partition([]int{0}, []int{1, 2, 3})
	step("partition: {0} | {1,2,3} (site 4 still down)")
	if err := cluster.Advance(3 * time.Second); err != nil {
		return err
	}
	maj, err := cluster.Submit(2, repro.NewTxn().Write("epoch", []byte("partitioned")))
	if err != nil {
		return err
	}
	step("majority side {1,2,3}: write committed=%v", maj.Committed)
	minr, err := cluster.Submit(0, repro.NewTxn().Write("epoch", []byte("split-brain?")))
	if err != nil && minr.Committed {
		return err
	}
	step("minority side {0}: write committed=%v (refused: %s)", minr.Committed, minr.Reason)
	if minr.Committed {
		return fmt.Errorf("minority committed — split brain!")
	}

	// 4. Heal.
	cluster.Heal()
	step("partition healed")
	if err := cluster.Advance(3 * time.Second); err != nil {
		return err
	}
	res, err = cluster.Submit(0, repro.NewTxn().Write("epoch", []byte("reunified")))
	if err != nil {
		return err
	}
	step("reunified: write at former minority site committed=%v", res.Committed)
	v, _ := cluster.Get(3, "epoch")
	step("site 3 reads epoch=%q — replicas agree", v)
	if string(v) != "reunified" {
		return fmt.Errorf("unexpected final value %q", v)
	}
	return nil
}
