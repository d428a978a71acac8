// Package faultnet is a deterministic, seed-driven fault injector for any
// transport.Network: per-link drop, duplicate, delay, partition, crash, and
// (in proxy mode) connection reset, driven by the same splitmix64 streams
// as the chaos schedule generator so a seed replays the identical fault
// pattern.
//
// Two modes share one fault surface (the same method set as
// transport.MemNetwork, plus Reset):
//
//   - Interface mode (New): wraps any Network and applies faults at the
//     Send boundary. Cheap, works with MemNetwork or TCP alike.
//   - Proxy mode (NewTCPProxy, proxy.go): interposes a frame-aware
//     localhost TCP relay on every link, so drops, partitions, and resets
//     hit real sockets — the kernel's connection state, the transport's
//     redial supervisor, and the batched writev path all see the fault.
//
// Determinism: every link ("from|to" pair) owns a private splitmix64
// stream seeded seed^fnv64(link), and each decision consumes a fixed number of
// draws. Per-link decision sequences therefore depend only on the seed and
// that link's send count — not on goroutine interleaving across links. The
// Trace method exposes the decisions for replay tests.
package faultnet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
)

// Net wraps an inner Network with seeded fault injection. The zero value is
// not usable; construct with New or NewTCPProxy.
type Net struct {
	inner transport.Network

	mu       sync.Mutex
	seed     uint64
	links    map[string]*link
	comp     map[string]int // partition component per endpoint
	crashed  map[string]bool
	names    map[string]bool  // every endpoint ever attached
	nodes    map[string]*node // live attached endpoints
	dropPM   int              // drop probability out of 1e6
	dupPM    int              // duplicate probability out of 1e6
	latency  time.Duration
	trace    []string
	proxies  map[string]*relay // proxy mode only
	tcp      *transport.TCPNetwork
	resetGen int // bumped per Reset so trace entries stay unique
}

// New wraps inner in interface mode: faults are applied at Send time.
func New(inner transport.Network, seed uint64) *Net {
	return &Net{
		inner:   inner,
		seed:    seed,
		links:   make(map[string]*link),
		comp:    make(map[string]int),
		crashed: make(map[string]bool),
		names:   make(map[string]bool),
		nodes:   make(map[string]*node),
	}
}

// link is the per-direction fault state: a private splitmix64 stream plus a
// send counter.
type link struct {
	rng rng
	seq int
}

func (n *Net) link(from, to string) *link {
	key := from + "|" + to
	l, ok := n.links[key]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(key))
		l = &link{rng: rng{state: n.seed ^ h.Sum64()}}
		n.links[key] = l
	}
	return l
}

// SetSeed reseeds every link stream (existing links restart their streams;
// the send counters reset too). Mirrors MemNetwork.SetSeed.
func (n *Net) SetSeed(seed uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seed = seed
	n.links = make(map[string]*link)
}

// SetLatency sets a fixed one-way delay applied to every delivery.
func (n *Net) SetLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = d
}

// SetDropRate sets the per-message drop probability, out of 1e6.
func (n *Net) SetDropRate(perMillion int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropPM = perMillion
}

// SetDupRate sets the per-message duplication probability, out of 1e6.
// A duplicated message is delivered twice back to back — the FIFO layer
// above must tolerate it (TCP itself never duplicates, but the app-level
// retransmission paths this models do).
func (n *Net) SetDupRate(perMillion int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dupPM = perMillion
}

// Partition splits the endpoints into components exactly like
// MemNetwork.Partition: listed groups stay internally reachable, everyone
// else becomes a singleton.
func (n *Net) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	next := 1
	for name := range n.comp {
		n.comp[name] = -next
		next++
	}
	for i, g := range groups {
		for _, name := range g {
			if _, ok := n.comp[name]; ok {
				n.comp[name] = i + 1
			}
		}
	}
}

// Heal reconnects every endpoint into one component.
func (n *Net) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for name := range n.comp {
		n.comp[name] = 0
	}
}

// Reachable reports whether two endpoints can currently exchange messages.
func (n *Net) Reachable(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ca, oka := n.comp[a]
	cb, okb := n.comp[b]
	return oka && okb && ca == cb && !n.crashed[a] && !n.crashed[b]
}

// Crash fail-stops an endpoint: every message to or from it is dropped and,
// in proxy mode, its relay kills the live connections. The name becomes
// attachable again (crash-and-recover).
func (n *Net) Crash(name string) {
	n.mu.Lock()
	n.crashed[name] = true
	delete(n.comp, name)
	nd := n.nodes[name]
	delete(n.nodes, name)
	r := n.proxies[name]
	n.mu.Unlock()
	if r != nil {
		r.setUpstream("") // relay refuses traffic until re-attach
	}
	if nd != nil {
		_ = nd.inner.Close() // detach for real: listener and links die
	}
	if mn, ok := n.inner.(*transport.MemNetwork); ok {
		mn.Crash(name)
	}
}

// Trace returns a copy of the fault decisions made so far, in the order
// they were taken. With single-threaded sends the trace is byte-identical
// across runs with the same seed.
func (n *Net) Trace() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.trace...)
}

// TraceString joins the trace into one block (for golden comparisons).
func (n *Net) TraceString() string {
	var b []byte
	for _, l := range n.Trace() {
		b = append(b, l...)
		b = append(b, '\n')
	}
	return string(b)
}

// Links lists every link that has made at least one fault decision, sorted.
func (n *Net) Links() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.links))
	for k := range n.links {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// decision is the fault verdict for one message on one link.
type decision struct {
	drop    bool
	dup     bool
	latency time.Duration
}

// decide consumes a fixed two draws from the link's stream (drop, dup) so
// the stream position depends only on the link's send count, never on the
// rates in effect — toggling a fault on and off mid-run cannot desync a
// replay.
func (n *Net) decide(from, to string) decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed[from] || n.crashed[to] {
		return decision{drop: true}
	}
	if cf, ct := n.comp[from], n.comp[to]; cf != ct {
		return decision{drop: true}
	}
	l := n.link(from, to)
	l.seq++
	dropDraw := l.rng.next() % 1_000_000
	dupDraw := l.rng.next() % 1_000_000
	var d decision
	d.latency = n.latency
	if n.dropPM > 0 && dropDraw < uint64(n.dropPM) {
		d.drop = true
		n.trace = append(n.trace, fmt.Sprintf("%s->%s #%d drop", from, to, l.seq))
		return d
	}
	if n.dupPM > 0 && dupDraw < uint64(n.dupPM) {
		d.dup = true
		n.trace = append(n.trace, fmt.Sprintf("%s->%s #%d dup", from, to, l.seq))
	}
	return d
}

// Attach implements transport.Network. In interface mode the handler is
// passed through untouched and faults are applied on the send side; in
// proxy mode the endpoint's relay is (re)pointed at the freshly-attached
// listener.
func (n *Net) Attach(name string, h transport.Handler) (transport.Node, error) {
	inner, err := n.inner.Attach(name, h)
	if err != nil {
		return nil, err
	}
	nd := &node{net: n, inner: inner, name: name}
	n.mu.Lock()
	delete(n.crashed, name)
	n.comp[name] = 0
	n.names[name] = true
	n.nodes[name] = nd
	r := n.proxies[name]
	tcp := n.tcp
	n.mu.Unlock()
	if r != nil && tcp != nil {
		// Re-point the relay at the endpoint's real (possibly rebound)
		// listener; peers keep dialing the stable relay address.
		r.setUpstream(tcp.ListenAddr(name))
	}
	return nd, nil
}

// node wraps an attached endpoint, injecting faults at Send in interface
// mode. In proxy mode faults are applied inside the relays, so Send passes
// straight through.
type node struct {
	net   *Net
	inner transport.Node
	name  string
}

var _ transport.Node = (*node)(nil)

func (nd *node) Name() string { return nd.name }

func (nd *node) Close() error {
	nd.net.mu.Lock()
	crashed := nd.net.crashed[nd.name]
	nd.net.mu.Unlock()
	if !crashed {
		nd.net.Crash(nd.name)
	}
	return nd.inner.Close()
}

func (nd *node) Send(to string, data []byte) error {
	if nd.net.isProxy() {
		return nd.inner.Send(to, data) // relays decide in proxy mode
	}
	d := nd.net.decide(nd.name, to)
	if d.drop {
		return nil
	}
	if d.latency > 0 {
		cp := append([]byte(nil), data...)
		dup := d.dup
		time.AfterFunc(d.latency, func() {
			_ = nd.inner.Send(to, cp)
			if dup {
				_ = nd.inner.Send(to, cp)
			}
		})
		return nil
	}
	err := nd.inner.Send(to, data)
	if d.dup {
		_ = nd.inner.Send(to, data)
	}
	return err
}

func (n *Net) isProxy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.proxies != nil
}

// rng is splitmix64, matching internal/chaos: stable across platforms and
// Go versions.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
