// Package failure implements a heartbeat-based failure detector. Each site
// periodically broadcasts heartbeats; a peer silent for longer than the
// timeout is suspected. Any received message counts as evidence of life, so
// busy links do not need extra heartbeats. In the simulator's partially
// synchronous runs the detector is eventually perfect, which is the
// assumption the membership service builds on.
package failure

import (
	"sort"
	"time"

	"repro/internal/env"
	"repro/internal/message"
)

// DefaultInterval is the heartbeat interval of a Detector configured
// without one.
const DefaultInterval = 50 * time.Millisecond

// Config parameterizes a Detector.
type Config struct {
	// Interval between heartbeats. Defaults to DefaultInterval.
	Interval time.Duration
	// Timeout after which a silent peer is suspected. Defaults to 4x
	// Interval.
	Timeout time.Duration
	// OnSuspect fires when a peer transitions to suspected.
	OnSuspect func(message.SiteID)
	// OnAlive fires when a suspected peer is heard from again.
	OnAlive func(message.SiteID)
}

// Detector is one site's failure detector.
type Detector struct {
	rt        env.Runtime
	cfg       Config
	lastSeen  map[message.SiteID]time.Duration
	suspected map[message.SiteID]bool
	stopped   bool
}

// New creates a detector; call Start to begin probing.
func New(rt env.Runtime, cfg Config) *Detector {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 4 * cfg.Interval
	}
	d := &Detector{
		rt:        rt,
		cfg:       cfg,
		lastSeen:  make(map[message.SiteID]time.Duration),
		suspected: make(map[message.SiteID]bool),
	}
	return d
}

// Start begins heartbeating and timeout checks.
func (d *Detector) Start() {
	now := d.rt.Now()
	for _, p := range d.rt.Peers() {
		if p != d.rt.ID() {
			d.lastSeen[p] = now
		}
	}
	d.tick()
}

// Stop halts probing (the pending timer becomes a no-op).
func (d *Detector) Stop() { d.stopped = true }

func (d *Detector) tick() {
	if d.stopped {
		return
	}
	hb := &message.Heartbeat{From: d.rt.ID()}
	now := d.rt.Now()
	for _, p := range d.rt.Peers() {
		if p == d.rt.ID() {
			continue
		}
		if _, seeded := d.lastSeen[p]; !seeded {
			// A peer first appearing after Start (late joiner, membership
			// change) would otherwise never enter lastSeen — check scans
			// only that map, so a silent late joiner could never be
			// suspected. Seed it with a full grace period now.
			d.lastSeen[p] = now
		}
		d.rt.Send(p, hb)
	}
	d.check()
	d.rt.SetTimer(d.cfg.Interval, d.tick)
}

func (d *Detector) check() {
	now := d.rt.Now()
	// Sweep in ascending site order so OnSuspect callbacks fire in the
	// same order every run — seeded simulations must be reproducible.
	peers := make([]message.SiteID, 0, len(d.lastSeen))
	for p := range d.lastSeen {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, p := range peers {
		if d.suspected[p] || now-d.lastSeen[p] <= d.cfg.Timeout {
			continue
		}
		d.suspected[p] = true
		if d.cfg.OnSuspect != nil {
			d.cfg.OnSuspect(p)
		}
	}
}

// Observe records evidence that peer is alive. The node router calls it for
// every received message; heartbeats are just the guaranteed minimum
// traffic.
func (d *Detector) Observe(peer message.SiteID) {
	if peer == d.rt.ID() {
		return
	}
	d.lastSeen[peer] = d.rt.Now()
	if d.suspected[peer] {
		delete(d.suspected, peer)
		if d.cfg.OnAlive != nil {
			d.cfg.OnAlive(peer)
		}
	}
}

// Timeout returns the silence after which a peer is suspected, defaults
// applied.
func (d *Detector) Timeout() time.Duration { return d.cfg.Timeout }

// Suspects reports whether peer is currently suspected.
func (d *Detector) Suspects(peer message.SiteID) bool { return d.suspected[peer] }

// Suspected returns the currently suspected peers in ascending order.
func (d *Detector) Suspected() []message.SiteID {
	out := make([]message.SiteID, 0, len(d.suspected))
	for p := range d.suspected {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
