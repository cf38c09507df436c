package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"uno/internal/harness"
	"uno/internal/netsim"
	"uno/internal/transport"
	"uno/internal/workload"
)

// span is one timed interval at a layer boundary, recorded from bench/ around
// a call into the layer. Times are nanoseconds since the tracer started.
// Parent is the index of the enclosing span (-1 for a root), so a layer's
// self time is its duration minus the durations of the spans naming it as
// parent. Agg marks a span that stands for many sampled calls inside its
// parent: its duration is the estimated total, not a measured interval.
type span struct {
	ID       int                `json:"id"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Parent   int                `json:"parent"`
	Workload string             `json:"workload"`
	Agg      bool               `json:"agg,omitempty"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// Names of the spans whose durations are also reported as metrics.
const (
	spanGenerate = "workload.generate"
	spanSchedule = "harness.Sim.Schedule"
	spanResults  = "harness.Sim.Results"
	spanFCTStats = "harness.Sim.AllFCTStats"
)

// tracer keeps spans in memory until write. A nil tracer records nothing,
// so untraced repetitions share the code path at the cost of a nil check.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Name: name, StartNs: time.Since(t.t0).Nanoseconds(), EndNs: -1,
		Parent: parent, Workload: t.workload,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	}
}

func (t *tracer) count(id int, key string, v float64) {
	if t == nil {
		return
	}
	if t.spans[id].Counts == nil {
		t.spans[id].Counts = map[string]float64{}
	}
	t.spans[id].Counts[key] = v
}

// aggregate records an estimated total for sampled calls inside parent.
func (t *tracer) aggregate(name string, parent int, calls uint64, estNs float64) {
	if t == nil || calls == 0 {
		return
	}
	id := t.begin(name, parent)
	s := &t.spans[id]
	s.StartNs = t.spans[parent].StartNs
	s.EndNs = s.StartNs + int64(estNs)
	s.Agg = true
	s.Counts = map[string]float64{"calls": float64(calls)}
}

// durMs returns the summed duration of every span with the given name.
func (t *tracer) durMs(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e6
}

func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}

// timerCostNs is what a sampled call reads when the call does nothing: the
// part of a time.Now/time.Since pair that falls between the two clock reads.
// It is subtracted from every sampled policy call.
func timerCostNs() float64 {
	const n = 200000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return float64(sum.Nanoseconds()) / n
}

// meter counts every call and times one in every `every`.
type meter struct {
	every   uint64
	calls   uint64
	samples uint64
	ns      int64
}

func (m *meter) due() bool {
	m.calls++
	return m.calls%m.every == 0
}

func (m *meter) add(d time.Duration) {
	m.samples++
	m.ns += d.Nanoseconds()
}

// meanNs is the mean sampled call time net of the timer's own cost.
func (m meter) meanNs(timerNs float64) float64 {
	if m.samples == 0 {
		return 0
	}
	if v := float64(m.ns)/float64(m.samples) - timerNs; v > 0 {
		return v
	}
	return 0
}

func (m meter) estNs(timerNs float64) float64 { return m.meanNs(timerNs) * float64(m.calls) }

func (m *meter) merge(o meter) {
	m.calls += o.calls
	m.samples += o.samples
	m.ns += o.ns
}

// shardMeters are the policy meters written from one shard's goroutine.
type shardMeters struct {
	ccAck, lbAssign, lbAck meter
}

// probes instruments a harness.Stack from outside: Policies returns
// wrappers around the real controller and path selector. One shardMeters
// per shard keeps the sharded engine's goroutines off each other's
// counters; policies is written only where Policies is called (the
// coordinator at set-up on the sharded engine, the one simulation goroutine
// on the classic engine).
type probes struct {
	shards   []*shardMeters
	policies meter   // every call timed
	timerNs  float64 // timerCostNs, taken off every sampled call
}

func newProbes(shards int, every uint64, timerNs float64) *probes {
	p := &probes{policies: meter{every: 1}, timerNs: timerNs}
	for i := 0; i < shards; i++ {
		p.shards = append(p.shards, &shardMeters{
			ccAck: meter{every: every}, lbAssign: meter{every: every}, lbAck: meter{every: every},
		})
	}
	return p
}

func (p *probes) total() shardMeters {
	var t shardMeters
	for _, s := range p.shards {
		t.ccAck.merge(s.ccAck)
		t.lbAssign.merge(s.lbAssign)
		t.lbAck.merge(s.lbAck)
	}
	return t
}

func (p *probes) wrap(st harness.Stack) harness.Stack {
	inner := st.Policies
	st.Policies = func(s *harness.Sim, spec workload.FlowSpec, inter bool) (transport.Params, transport.CongestionControl, transport.PathSelector) {
		p.policies.due()
		t0 := time.Now()
		params, cc, lb := inner(s, spec, inter)
		p.policies.add(time.Since(t0))
		m := p.shards[s.Topo.Hosts[spec.Src].Network().Shard()]
		return params, wrapCC(cc, m), &lbProbe{inner: lb, m: m}
	}
	return st
}

// ccProbe forwards every CongestionControl callback and meters OnAck.
type ccProbe struct {
	inner transport.CongestionControl
	m     *shardMeters
}

// ccProbeCnm is ccProbe for controllers that also take QCN notifications:
// transport finds the extension by type assertion, so the wrapper must
// have the method exactly when the inner controller does.
type ccProbeCnm struct {
	ccProbe
	cnm transport.CnmReceiver
}

func wrapCC(cc transport.CongestionControl, m *shardMeters) transport.CongestionControl {
	p := ccProbe{inner: cc, m: m}
	if r, ok := cc.(transport.CnmReceiver); ok {
		return &ccProbeCnm{ccProbe: p, cnm: r}
	}
	return &p
}

func (p *ccProbe) Name() string                { return p.inner.Name() }
func (p *ccProbe) Init(c *transport.Conn)      { p.inner.Init(c) }
func (p *ccProbe) OnNack(c *transport.Conn)    { p.inner.OnNack(c) }
func (p *ccProbe) OnTimeout(c *transport.Conn) { p.inner.OnTimeout(c) }
func (p *ccProbe) OnAck(c *transport.Conn, a transport.AckInfo) {
	if !p.m.ccAck.due() {
		p.inner.OnAck(c, a)
		return
	}
	t0 := time.Now()
	p.inner.OnAck(c, a)
	p.m.ccAck.add(time.Since(t0))
}

func (p *ccProbeCnm) OnCnm(c *transport.Conn, fb float64) { p.cnm.OnCnm(c, fb) }

// lbProbe forwards every PathSelector callback and meters Assign and OnAck.
type lbProbe struct {
	inner transport.PathSelector
	m     *shardMeters
}

func (p *lbProbe) Name() string                { return p.inner.Name() }
func (p *lbProbe) Init(c *transport.Conn)      { p.inner.Init(c) }
func (p *lbProbe) OnNack(c *transport.Conn)    { p.inner.OnNack(c) }
func (p *lbProbe) OnTimeout(c *transport.Conn) { p.inner.OnTimeout(c) }
func (p *lbProbe) Assign(c *transport.Conn, pkt *netsim.Packet) {
	if !p.m.lbAssign.due() {
		p.inner.Assign(c, pkt)
		return
	}
	t0 := time.Now()
	p.inner.Assign(c, pkt)
	p.m.lbAssign.add(time.Since(t0))
}
func (p *lbProbe) OnAck(c *transport.Conn, a transport.AckInfo, subflow int8, entropy uint32) {
	if !p.m.lbAck.due() {
		p.inner.OnAck(c, a, subflow, entropy)
		return
	}
	t0 := time.Now()
	p.inner.OnAck(c, a, subflow, entropy)
	p.m.lbAck.add(time.Since(t0))
}
