package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/env"
	"repro/internal/livenet"
	"repro/internal/message"
	"repro/internal/trace"
)

// The benchmark's own boundary spans, recorded from outside the layers: the
// runtime decorator sees every Send and timer callback the engine asks the
// transport for, the node decorator every Receive the transport hands the
// engine, and the Do wrapper every client call entering the event loop.
// Timestamps are the site's livenet clock, the one the engine's span ring
// uses, so both kinds of span share a timeline per site.
const (
	spanSend    = "bench-send"    // one rt.Send; peer = destination, extra = message kind
	spanReceive = "bench-receive" // one node.Receive; peer = sender, extra = message kind, self_ns = duration minus contained sends
	spanTimer   = "bench-timer"   // one timer callback
	spanDo      = "bench-do"      // one client call: start = Do called, loop_ns = when the closure got the loop
	spanTxn     = "bench-txn"     // generator: start = due, issued_ns = handed to the issuer, end = outcome
)

type benchSpan struct {
	kind   string
	txn    message.TxnID
	peer   message.SiteID
	msg    message.Kind
	start  time.Duration
	mid    time.Duration // spanDo: closure start; spanTxn: issued
	end    time.Duration
	selfNs time.Duration
}

// captureMsgs is how many delivered envelopes site 0 keeps for the codec
// micro-run.
const captureMsgs = 10000

// siteProbe holds one site's boundary measurements. Everything except on is
// owned by the site's event loop: Send, Receive, timers and Do closures all
// run there.
type siteProbe struct {
	id   message.SiteID
	host *livenet.Host
	on   atomic.Bool // recording only during the traced slice

	spans    []benchSpan
	child    time.Duration // Send time inside the loop entry now running
	busy     time.Duration // total loop hold time: receives + timers + client calls
	sendNs   time.Duration
	sends    int64
	recvSelf map[message.Kind]time.Duration
	recvN    map[message.Kind]int64
	waits    []time.Duration // Do called -> closure starts
	captured []message.Message
}

func newSiteProbe(id message.SiteID, host *livenet.Host) *siteProbe {
	return &siteProbe{
		id:       id,
		host:     host,
		recvSelf: make(map[message.Kind]time.Duration),
		recvN:    make(map[message.Kind]int64),
	}
}

// reserve sizes the span slice so recording does not grow it mid-slice.
func (p *siteProbe) reserve(spans int) {
	p.spans = make([]benchSpan, 0, spans)
	p.waits = make([]time.Duration, 0, spans/8)
}

// payloadKind names a message by the protocol message it carries: group
// envelopes and broadcast frames are unwrapped.
func payloadKind(m message.Message) message.Kind {
	if g, ok := m.(*message.GroupMsg); ok && g.Inner != nil {
		m = g.Inner
	}
	if b, ok := m.(*message.Bcast); ok && b.Payload != nil {
		return b.Payload.Kind()
	}
	return m.Kind()
}

func (p *siteProbe) do(fn func()) {
	if !p.on.Load() {
		p.host.Do(fn)
		return
	}
	called := p.host.Now()
	p.host.Do(func() {
		start := p.host.Now()
		p.child = 0
		fn()
		end := p.host.Now()
		p.busy += end - start
		p.waits = append(p.waits, start-called)
		p.spans = append(p.spans, benchSpan{kind: spanDo, peer: trace.NoPeer, start: called, mid: start, end: end, selfNs: end - start - p.child})
	})
}

// probedRuntime is the env.Runtime handed to the engine.
type probedRuntime struct {
	*livenet.Host
	p *siteProbe
}

func (r *probedRuntime) Send(to message.SiteID, m message.Message) {
	p := r.p
	if !p.on.Load() {
		r.Host.Send(to, m)
		return
	}
	start := r.Host.Now()
	r.Host.Send(to, m)
	end := r.Host.Now()
	p.child += end - start
	p.sendNs += end - start
	p.sends++
	id, _ := message.TxnOf(m)
	p.spans = append(p.spans, benchSpan{kind: spanSend, txn: id, peer: to, msg: payloadKind(m), start: start, end: end})
}

func (r *probedRuntime) SetTimer(d time.Duration, fn func()) env.TimerID {
	p := r.p
	return r.Host.SetTimer(d, func() {
		if !p.on.Load() {
			fn()
			return
		}
		start := r.Host.Now()
		p.child = 0
		fn()
		end := r.Host.Now()
		p.busy += end - start
		p.spans = append(p.spans, benchSpan{kind: spanTimer, peer: trace.NoPeer, start: start, end: end, selfNs: end - start - p.child})
	})
}

// probedNode is the env.Node bound to the host.
type probedNode struct {
	env.Node
	p *siteProbe
}

func (n *probedNode) Receive(from message.SiteID, m message.Message) {
	p := n.p
	if p.id == 0 && from != p.id && len(p.captured) < captureMsgs {
		p.captured = append(p.captured, m)
	}
	if !p.on.Load() {
		n.Node.Receive(from, m)
		return
	}
	start := p.host.Now()
	p.child = 0
	n.Node.Receive(from, m)
	end := p.host.Now()
	self := end - start - p.child
	k := payloadKind(m)
	p.busy += end - start
	p.recvSelf[k] += self
	p.recvN[k]++
	id, _ := message.TxnOf(m)
	p.spans = append(p.spans, benchSpan{kind: spanReceive, txn: id, peer: from, msg: k, start: start, end: end, selfNs: self})
}

// traceSample is the share of transactions whose spans reach the trace
// file: whole traces, every site, one transaction in traceSample. The
// metrics use every span; the file is for reading.
const traceSample = 16

func sampled(id message.TxnID) bool { return id.Seq%traceSample == 0 }

type benchSpanLine struct {
	Trace  string `json:"t"`
	Site   int32  `json:"site"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"`
	Mid    int64  `json:"mid_ns,omitempty"`
	End    int64  `json:"end_ns"`
	Peer   int32  `json:"peer"`
	Msg    string `json:"msg,omitempty"`
	SelfNs int64  `json:"self_ns,omitempty"`
}

// writeTrace writes <dir>/<workload>.trace.jsonl: per site, the engine's
// span ring in the repository's JSONL format (docs/TRACING.md), then the
// benchmark's boundary spans of that site, both cut to the sample.
func writeTrace(dir string, c *cluster, gen [][]benchSpan) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, c.def.name+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range c.sites {
		var keep []trace.Span
		for _, sp := range s.tracer.Spans() {
			if sp.Trace.IsZero() || sampled(sp.Trace) {
				keep = append(keep, sp)
			}
		}
		meta := trace.Meta{Site: int32(s.id), Proto: c.def.proto, Sites: c.def.sites, Dropped: s.tracer.Dropped()}
		if c.ring != nil {
			meta.Groups = c.ring.Groups()
		}
		if err == nil {
			err = trace.WriteJSONL(bw, meta, keep)
		}
		for _, set := range [][]benchSpan{s.probe.spans, gen[i]} {
			for _, sp := range set {
				if !sp.txn.IsZero() && !sampled(sp.txn) {
					continue
				}
				line := benchSpanLine{Site: int32(s.id), Kind: sp.kind, Start: int64(sp.start), Mid: int64(sp.mid), End: int64(sp.end), Peer: int32(sp.peer), SelfNs: int64(sp.selfNs)}
				if !sp.txn.IsZero() {
					line.Trace = sp.txn.String()
				}
				if sp.kind == spanSend || sp.kind == spanReceive {
					line.Msg = sp.msg.String()
				}
				if err == nil {
					err = enc.Encode(line)
				}
			}
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
