package simnet

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Sim is a deterministic discrete-event simulator over a Network with
// cooperatively scheduled processes. Exactly one process goroutine runs at
// a time; events are processed in (time, sequence) order, so a given
// program always produces the same timings.
type Sim struct {
	net *Network
	now float64

	events  eventHeap
	eventSq int64

	flows      map[int64]*flow
	nextFlowID int64
	ratesDirty bool
	// max-min scratch (lazily sized to the link count)
	linkFree   []float64
	linkCount  []int32
	touchedBuf []int32

	procs   []*Proc
	readyQ  []*Proc
	yielded chan struct{}

	// Stats
	FlowsCompleted int64
	// FlowsFailed counts flows terminated because a link failure made
	// their destination unreachable (see fail.go). Their completion
	// signals still fire so waiting processes do not deadlock.
	FlowsFailed int64
	BytesMoved  float64

	fail *failState // private link-failure view; nil while nothing failed

	// TrackLinkStats enables per-link byte accounting (off by default:
	// it adds O(path length) work to every drain step). Set before Run.
	TrackLinkStats bool
	linkBytes      []float64

	// Tracer, when non-nil, records every flow's lifecycle (see trace.go).
	// Set before Run.
	Tracer *FlowTracer
	// Metrics, when non-nil, receives live counter/gauge/histogram updates
	// as the simulation runs (see SimMetrics). Set before Run.
	Metrics *SimMetrics
	// Time-bucketed link series (see EnableLinkSeries).
	seriesBucket float64
	series       [][]float64

	// linkFreeAt is the packet-mode per-link FIFO horizon (see packet.go).
	linkFreeAt []float64
}

// Signal is a one-shot condition processes can wait on.
type Signal struct {
	fired   bool
	waiters []*Proc
	chained []*Signal
}

// Fired reports whether the signal has fired.
func (sg *Signal) Fired() bool { return sg.fired }

type flow struct {
	id        int64
	src, dst  int
	links     []int32
	remaining float64
	rate      float64
	done      *Signal
	started   float64 // sim time at which the flow began carrying bytes
}

type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event   { return h[0] }

// Proc is a simulated process pinned to a host. Its body runs in its own
// goroutine but only while the scheduler has handed it control; all
// blocking goes through Wait/Sleep.
type Proc struct {
	ID     int
	Host   int
	sim    *Sim
	resume chan struct{}
	done   bool
	failed error
}

// NewSim creates a simulator for the network.
func NewSim(net *Network) *Sim {
	return &Sim{
		net:     net,
		flows:   make(map[int64]*flow),
		yielded: make(chan struct{}),
	}
}

// Now returns the current simulated time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Network returns the underlying network.
func (s *Sim) Network() *Network { return s.net }

// Spawn registers a process bound to a host. Must be called before Run.
func (s *Sim) Spawn(host int, body func(p *Proc)) *Proc {
	if host < 0 || host >= s.net.Hosts() {
		panic(fmt.Sprintf("simnet: spawn on host %d of %d", host, s.net.Hosts()))
	}
	p := &Proc{ID: len(s.procs), Host: host, sim: s, resume: make(chan struct{})}
	s.procs = append(s.procs, p)
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				p.failed = fmt.Errorf("simnet: process %d panicked: %v", p.ID, r)
			}
			p.done = true
			s.yielded <- struct{}{}
		}()
		body(p)
	}()
	s.readyQ = append(s.readyQ, p)
	return p
}

// Run executes until every process finishes. It returns an error on
// deadlock (processes blocked with no pending events) or process panic.
func (s *Sim) Run() error {
	for {
		if len(s.readyQ) > 0 {
			p := s.readyQ[0]
			s.readyQ = s.readyQ[1:]
			p.resume <- struct{}{}
			<-s.yielded
			if p.failed != nil {
				return p.failed
			}
			continue
		}
		allDone := true
		for _, p := range s.procs {
			if !p.done {
				allDone = false
				break
			}
		}
		if allDone {
			return nil
		}
		if err := s.advance(); err != nil {
			return err
		}
	}
}

// advance moves time to the next event (timer or flow completion) and
// handles it.
func (s *Sim) advance() error {
	if s.ratesDirty {
		s.recomputeRates()
	}
	tFlow, flowIDs := s.nextFlowCompletion()
	tTimer := math.Inf(1)
	if len(s.events) > 0 {
		tTimer = s.events.peek().at
	}
	t := math.Min(tFlow, tTimer)
	if math.IsInf(t, 1) {
		blocked := 0
		for _, p := range s.procs {
			if !p.done {
				blocked++
			}
		}
		return fmt.Errorf("simnet: deadlock at t=%.9f: %d processes blocked with no pending events", s.now, blocked)
	}
	s.drainFlows(t - s.now)
	s.now = t
	if tFlow <= tTimer {
		for _, id := range flowIDs {
			f := s.flows[id]
			delete(s.flows, id)
			s.FlowsCompleted++
			s.ratesDirty = true
			s.Tracer.record(FlowEvent{Kind: FlowFinish, Time: s.now, ID: f.id, Src: f.src, Dst: f.dst})
			s.Metrics.flowEnded(s, f, false)
			s.fire(f.done)
		}
		return nil
	}
	// Drain every timer event scheduled for this instant in one pass so the
	// (expensive) rate recomputation runs once per timestamp, not once per
	// event — synchronized collectives produce large same-time batches.
	e := heap.Pop(&s.events).(event)
	e.fn()
	for len(s.events) > 0 && s.events.peek().at == t {
		e := heap.Pop(&s.events).(event)
		e.fn()
	}
	return nil
}

// drainFlows transfers dt seconds of data on every active flow.
func (s *Sim) drainFlows(dt float64) {
	if dt <= 0 {
		return
	}
	for _, f := range s.flows {
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		s.BytesMoved += moved
		if s.TrackLinkStats {
			if s.linkBytes == nil {
				s.linkBytes = make([]float64, s.net.NumLinks())
			}
			for _, l := range f.links {
				s.linkBytes[l] += moved
			}
		}
		if s.seriesBucket > 0 && moved > 0 {
			s.addSeries(f.links, moved, dt)
		}
	}
}

// LinkLoad reports the bytes carried by one directed link.
type LinkLoad struct {
	From, To int // node ids: hosts [0,n), switch s at n+s
	Bytes    float64
}

// LinkLoads returns per-directed-link transferred bytes (requires
// TrackLinkStats). Links are returned in link-id order.
func (s *Sim) LinkLoads() []LinkLoad {
	out := make([]LinkLoad, s.net.NumLinks())
	for l := range out {
		out[l] = LinkLoad{From: int(s.net.linkFrom[l]), To: int(s.net.linkTo[l])}
		if s.linkBytes != nil {
			out[l].Bytes = s.linkBytes[l]
		}
	}
	return out
}

// nextFlowCompletion returns the earliest completion time among active
// flows and the ids of all flows completing then (within tolerance).
func (s *Sim) nextFlowCompletion() (float64, []int64) {
	t := math.Inf(1)
	for _, f := range s.flows {
		if f.rate <= 0 {
			continue
		}
		ft := s.now + f.remaining/f.rate
		if ft < t {
			t = ft
		}
	}
	if math.IsInf(t, 1) {
		return t, nil
	}
	const eps = 1e-15
	var ids []int64
	for id, f := range s.flows {
		if f.rate <= 0 {
			continue
		}
		if s.now+f.remaining/f.rate <= t+eps {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return t, ids
}

// recomputeRates runs progressive-filling max-min fair allocation over all
// active flows using flat per-link arrays (this is the simulator's hot
// path).
func (s *Sim) recomputeRates() {
	s.ratesDirty = false
	if len(s.flows) == 0 {
		return
	}
	active := make([]*flow, 0, len(s.flows))
	for _, f := range s.flows {
		active = append(active, f)
	}
	sort.Slice(active, func(i, j int) bool { return active[i].id < active[j].id })

	cap_ := s.net.cfg.BandwidthBps
	if s.linkFree == nil {
		s.linkFree = make([]float64, s.net.NumLinks())
		s.linkCount = make([]int32, s.net.NumLinks())
	}
	touched := s.touchedBuf[:0]
	for _, f := range active {
		f.rate = -1
		for _, l := range f.links {
			if s.linkCount[l] == 0 {
				s.linkFree[l] = cap_
				touched = append(touched, l)
			}
			s.linkCount[l]++
		}
	}
	unset := len(active)
	for unset > 0 {
		share := math.Inf(1)
		for _, l := range touched {
			if s.linkCount[l] == 0 {
				continue
			}
			if sh := s.linkFree[l] / float64(s.linkCount[l]); sh < share {
				share = sh
			}
		}
		if math.IsInf(share, 1) {
			for _, f := range active {
				if f.rate < 0 {
					f.rate = cap_
				}
			}
			break
		}
		limit := share * (1 + 1e-12)
		froze := 0
		for _, f := range active {
			if f.rate >= 0 {
				continue
			}
			bottled := false
			for _, l := range f.links {
				if c := s.linkCount[l]; c > 0 && s.linkFree[l]/float64(c) <= limit {
					bottled = true
					break
				}
			}
			if !bottled {
				continue
			}
			f.rate = share
			froze++
			for _, l := range f.links {
				s.linkFree[l] -= share
				if s.linkFree[l] < 0 {
					s.linkFree[l] = 0
				}
				s.linkCount[l]--
			}
		}
		unset -= froze
		if froze == 0 {
			// Numerical stalemate: assign the remaining flows the current
			// share to guarantee termination.
			for _, f := range active {
				if f.rate < 0 {
					f.rate = share
					unset--
				}
			}
		}
	}
	// Reset counters for the next invocation (free slots are lazily
	// reinitialised via linkCount == 0).
	for _, l := range touched {
		s.linkCount[l] = 0
	}
	s.touchedBuf = touched[:0]
}

// after schedules fn at now+delay.
func (s *Sim) after(delay float64, fn func()) {
	s.eventSq++
	heap.Push(&s.events, event{at: s.now + delay, seq: s.eventSq, fn: fn})
}

// fire marks a signal fired, readies its waiters, and fires any chained
// signals.
func (s *Sim) fire(sg *Signal) {
	if sg == nil || sg.fired {
		return
	}
	sg.fired = true
	for _, p := range sg.waiters {
		s.readyQ = append(s.readyQ, p)
	}
	sg.waiters = nil
	for _, c := range sg.chained {
		s.fire(c)
	}
	sg.chained = nil
}

// Chain arranges for `to` to fire when `from` fires (immediately if it
// already has).
func (s *Sim) Chain(from, to *Signal) {
	if from.fired {
		s.fire(to)
		return
	}
	from.chained = append(from.chained, to)
}

// NewSignal returns an unfired signal.
func (s *Sim) NewSignal() *Signal { return &Signal{} }

// FireAt fires the signal at the given delay from now.
func (s *Sim) FireAt(sg *Signal, delay float64) {
	s.after(delay, func() { s.fire(sg) })
}

// StartFlow begins a transfer of the given number of bytes from host src
// to host dst and returns a signal that fires on completion. A transfer
// first pays the per-message overhead plus per-hop latency, then shares
// bandwidth max-min fairly with all concurrent flows on its path.
// src == dst transfers fire after the message overhead alone.
func (s *Sim) StartFlow(src, dst int, bytes float64) (*Signal, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("simnet: negative transfer size %v", bytes)
	}
	sg := s.NewSignal()
	cfg := s.net.cfg
	if src == dst {
		s.FireAt(sg, cfg.MessageOverhead)
		return sg, nil
	}
	links, err := s.route(src, dst)
	if err != nil {
		return nil, err
	}
	delay := cfg.MessageOverhead + float64(len(links))*cfg.LatencyPerHop
	s.after(delay, func() {
		if bytes == 0 {
			s.fire(sg)
			return
		}
		// A link may have failed during the latency window; re-resolve
		// before the flow starts carrying bytes.
		if s.fail != nil {
			for _, l := range links {
				if !s.fail.down[l] {
					continue
				}
				fresh, err := s.route(src, dst)
				if err != nil {
					s.FlowsFailed++
					s.Tracer.record(FlowEvent{Kind: FlowFail, Time: s.now, Src: src, Dst: dst, Bytes: bytes})
					s.Metrics.flowEnded(s, nil, true)
					s.fire(sg)
					return
				}
				links = fresh
				break
			}
		}
		s.nextFlowID++
		f := &flow{id: s.nextFlowID, src: src, dst: dst, links: links, remaining: bytes, done: sg, started: s.now}
		s.flows[f.id] = f
		s.ratesDirty = true
		if s.Tracer != nil {
			s.Tracer.record(FlowEvent{Kind: FlowStart, Time: s.now, ID: f.id, Src: src, Dst: dst,
				Bytes: bytes, Route: append([]int32(nil), links...)})
		}
		s.Metrics.flowStarted(s)
	})
	return sg, nil
}

// --- Proc API ---

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.sim.now }

// Sim returns the simulator owning this process.
func (p *Proc) Sim() *Sim { return p.sim }

// yield parks the process until the scheduler resumes it.
func (p *Proc) yield() {
	p.sim.yielded <- struct{}{}
	<-p.resume
}

// Wait blocks until the signal fires (returns immediately if it already
// has).
func (p *Proc) Wait(sg *Signal) {
	if sg.fired {
		return
	}
	sg.waiters = append(sg.waiters, p)
	p.yield()
}

// WaitAll blocks until all the given signals have fired.
func (p *Proc) WaitAll(sgs ...*Signal) {
	for _, sg := range sgs {
		p.Wait(sg)
	}
}

// Sleep advances the process's virtual time by d seconds (modelling
// computation).
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic("simnet: negative sleep")
	}
	sg := p.sim.NewSignal()
	p.sim.FireAt(sg, d)
	p.Wait(sg)
}
