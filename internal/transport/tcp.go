package transport

import (
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// TCPNetwork is a Network over real TCP connections, for running daemons
// across machines (cmd/spreadd). It is configured with a static address
// book mapping endpoint names to host:port listen addresses, like the
// paper's Spread configuration file.
//
// Reliability contract: a TCP connection gives FIFO reliable delivery while
// it lives; on any error the connection is dropped and frames are lost
// until a new dial succeeds — exactly the drop-on-unreachable semantics the
// membership layer expects.
//
// Each outbound link is owned by a per-peer supervisor goroutine (see
// tcpPeer): Send never dials and never blocks on the socket, it appends the
// encoded frame to a bounded per-peer queue. The supervisor drains the
// queue in writev batches as soon as it wakes, redials with exponential
// backoff and jitter when the connection is down, bounds every dial and
// write with a deadline, and reports link transitions to handlers
// implementing PeerWatcher.
type TCPNetwork struct {
	mu     sync.Mutex
	addrs  map[string]string // dial book: where peers reach an endpoint
	listen map[string]string // listen overrides (see SetListenAddr)
	tun    TCPTuning
}

// TCPTuning bounds the per-peer connection supervisor. The zero value of
// any field selects its default.
type TCPTuning struct {
	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds one batch write; an expired deadline drops
	// the connection (default 2s).
	WriteTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential redial backoff
	// (defaults 50ms and 2s); each sleep gets ±25% deterministic jitter.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// DownAfter is the number of consecutive dial failures after which the
	// peer is reported down to a PeerWatcher (default 2).
	DownAfter int
	// QueueFrames/QueueBytes cap the per-peer send queue; beyond either
	// bound the oldest frames are dropped and counted (default 1024 frames,
	// 4 MiB).
	QueueFrames int
	QueueBytes  int
}

func (t TCPTuning) withDefaults() TCPTuning {
	if t.DialTimeout <= 0 {
		t.DialTimeout = 2 * time.Second
	}
	if t.WriteTimeout <= 0 {
		t.WriteTimeout = 2 * time.Second
	}
	if t.BackoffMin <= 0 {
		t.BackoffMin = 50 * time.Millisecond
	}
	if t.BackoffMax <= 0 {
		t.BackoffMax = 2 * time.Second
	}
	if t.BackoffMax < t.BackoffMin {
		t.BackoffMax = t.BackoffMin
	}
	if t.DownAfter <= 0 {
		t.DownAfter = 2
	}
	if t.QueueFrames <= 0 {
		t.QueueFrames = 1024
	}
	if t.QueueBytes <= 0 {
		t.QueueBytes = 4 << 20
	}
	return t
}

// NewTCPNetwork creates a TCP transport with the given address book.
func NewTCPNetwork(addrs map[string]string) *TCPNetwork {
	book := make(map[string]string, len(addrs))
	for k, v := range addrs {
		book[k] = v
	}
	return &TCPNetwork{
		addrs:  book,
		listen: make(map[string]string),
		tun:    TCPTuning{}.withDefaults(),
	}
}

// SetTuning replaces the supervisor tuning for peers created after the
// call. Zero-valued fields select their defaults.
func (t *TCPNetwork) SetTuning(tun TCPTuning) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tun = tun.withDefaults()
}

var _ Network = (*TCPNetwork)(nil)

// Attach implements Network: it starts listening on the endpoint's
// configured address. A listen address with port 0 is resolved and written
// back, so peers configured with dynamic ports can dial each other without
// manual SetAddr calls — unless a listen override exists for the name (see
// SetListenAddr), in which case the dial book is left alone (the faultnet
// proxy publishes its own address there).
func (t *TCPNetwork) Attach(name string, h Handler) (Node, error) {
	t.mu.Lock()
	laddr, hasOverride := t.listen[name]
	if !hasOverride {
		laddr = t.addrs[name]
	}
	tun := t.tun
	t.mu.Unlock()
	if laddr == "" {
		return nil, fmt.Errorf("transport: no address configured for %s", name)
	}
	ln, err := net.Listen("tcp", laddr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", laddr, err)
	}
	resolved := ln.Addr().String()
	t.mu.Lock()
	if hasOverride {
		t.listen[name] = resolved
	} else {
		t.addrs[name] = resolved
	}
	t.mu.Unlock()

	reg := obs.Default
	if mp, ok := h.(MetricsProvider); ok {
		if r := mp.ObsRegistry(); r != nil {
			reg = r
		}
	}
	node := &tcpNode{
		net:      t,
		name:     name,
		handler:  h,
		ln:       ln,
		tun:      tun,
		counters: newTCPCounters(reg),
		peers:    make(map[string]*tcpPeer),
		accepted: make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	if w, ok := h.(PeerWatcher); ok {
		node.watcher = w
	}
	go node.acceptLoop()
	return node, nil
}

// Addr returns the dial address of an endpoint.
func (t *TCPNetwork) Addr(name string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[name]
}

// SetAddr updates the dial book (used by tests with dynamic ports and by
// the faultnet proxy, which re-points a name at its relay).
func (t *TCPNetwork) SetAddr(name, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[name] = addr
}

// ListenAddr returns the resolved listen override for an endpoint, or ""
// when the endpoint listens on its dial-book address.
func (t *TCPNetwork) ListenAddr(name string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.listen[name]
}

// SetListenAddr sets the address the named endpoint listens on, decoupling
// it from the dial book: with an override in place, Attach resolves and
// rebinds the override but never publishes it to the dial book, so the dial
// book can point peers at an intermediary (the faultnet localhost proxy).
func (t *TCPNetwork) SetListenAddr(name, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.listen[name] = addr
}

type tcpCounters struct {
	dialAttempts *obs.Counter
	dialFailures *obs.Counter
	peerUp       *obs.Counter
	peerDown     *obs.Counter
	sendqDropped *obs.Counter
}

func newTCPCounters(reg *obs.Registry) tcpCounters {
	return tcpCounters{
		dialAttempts: reg.Counter("transport_dial_attempts"),
		dialFailures: reg.Counter("transport_dial_failures"),
		peerUp:       reg.Counter("transport_peer_up"),
		peerDown:     reg.Counter("transport_peer_down"),
		sendqDropped: reg.Counter("transport_sendq_dropped"),
	}
}

type tcpNode struct {
	net      *TCPNetwork
	name     string
	handler  Handler
	watcher  PeerWatcher // nil unless the handler wants link events
	ln       net.Listener
	tun      TCPTuning
	counters tcpCounters

	mu       sync.Mutex
	peers    map[string]*tcpPeer
	accepted map[net.Conn]struct{}
	done     chan struct{}
	once     sync.Once
}

var (
	_ Node           = (*tcpNode)(nil)
	_ StatusReporter = (*tcpNode)(nil)
)

func (n *tcpNode) Name() string { return n.name }

// PeerStatus implements StatusReporter: one entry per outbound peer this
// node has ever sent to, sorted by name.
func (n *tcpNode) PeerStatus() []PeerStatus {
	n.mu.Lock()
	peers := make([]*tcpPeer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	out := make([]PeerStatus, 0, len(peers))
	for _, p := range peers {
		p.mu.Lock()
		out = append(out, PeerStatus{
			Peer:        p.name,
			Up:          p.up && !p.closed,
			QueueFrames: len(p.q),
			QueueBytes:  p.qBytes,
		})
		p.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// ListenAddr returns the actual listen address (resolves port 0).
func (n *tcpNode) ListenAddr() string { return n.ln.Addr().String() }

// Send implements Node: it encodes the frame into a pooled buffer and
// appends it to the peer's bounded queue. It never dials and never touches
// the socket, so a dead or stalled peer cannot block the caller (the daemon
// event loop); the supervisor owns all connection I/O.
func (n *tcpNode) Send(to string, data []byte) error {
	select {
	case <-n.done:
		return ErrClosed
	default:
	}
	frame, err := AppendFrame(getFrame(), n.name, data)
	if err != nil {
		putFrame(frame)
		return nil // unsendable frame: silent drop, like an unknown peer
	}
	p := n.peer(to)
	p.enqueue(frame)
	return nil
}

// peer returns the supervisor for a destination, starting one on first use.
func (n *tcpNode) peer(to string) *tcpPeer {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.peers[to]; ok {
		return p
	}
	h := fnv.New64a()
	h.Write([]byte(n.name + "->" + to))
	p := &tcpPeer{
		node: n,
		name: to,
		tun:  n.tun,
		rng:  h.Sum64() | 1,
		up:   true, // presumed reachable until DownAfter dial failures
		wake: make(chan struct{}, 1),
	}
	n.peers[to] = p
	go p.run()
	return p
}

func (n *tcpNode) Close() error {
	n.once.Do(func() {
		close(n.done)
		_ = n.ln.Close()
		n.mu.Lock()
		peers := make([]*tcpPeer, 0, len(n.peers))
		for _, p := range n.peers {
			peers = append(peers, p)
		}
		conns := make([]net.Conn, 0, len(n.accepted))
		for c := range n.accepted {
			conns = append(conns, c)
		}
		n.mu.Unlock()
		for _, p := range peers {
			p.close()
		}
		// Closing accepted connections unblocks their readLoops, so a
		// closed node leaks no goroutines and a crashed daemon's peers
		// observe a real socket close rather than a silent stall.
		for _, c := range conns {
			_ = c.Close()
		}
	})
	return nil
}

func (n *tcpNode) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		select {
		case <-n.done:
			n.mu.Unlock()
			_ = conn.Close()
			return
		default:
		}
		n.accepted[conn] = struct{}{}
		n.mu.Unlock()
		go n.readLoop(conn)
	}
}

func (n *tcpNode) readLoop(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
	}()
	for {
		from, data, err := ReadFrame(conn)
		if err != nil {
			return
		}
		select {
		case <-n.done:
			return
		default:
		}
		n.handler.HandleMessage(from, data)
	}
}

// maxPooledFrame caps the encoded-frame buffers kept in the pool so a rare
// giant frame does not pin its allocation forever.
const maxPooledFrame = 64 << 10

// framePool recycles encoded-frame buffers between Send and the supervisor
// write loop.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

func getFrame() []byte {
	return (*framePool.Get().(*[]byte))[:0]
}

func putFrame(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledFrame {
		return
	}
	framePool.Put(&b)
}

// tcpPeer supervises one outbound link: a bounded queue of encoded frames
// plus a goroutine that owns the connection. The state machine is
//
//	down --dial ok--> up --write/dial error--> down
//
// with exponential backoff + jitter between dial attempts, a deadline on
// every dial and write, and drop-oldest degradation when the queue
// overflows while the peer is down. Transitions are reported to the node's
// PeerWatcher: down after DownAfter consecutive dial failures, up on the
// next successful dial.
type tcpPeer struct {
	node *tcpNode
	name string
	tun  TCPTuning
	rng  uint64 // xorshift state for backoff jitter

	mu     sync.Mutex
	q      [][]byte // encoded frames, oldest first
	qBytes int
	conn   net.Conn // owned by the supervisor; closed out from under it on close()
	closed bool
	up     bool // last state reported to the watcher

	wake chan struct{}
	bufs net.Buffers // supervisor-owned writev scratch, reused across batches
}

// enqueue appends one encoded frame, evicting the oldest frames when the
// queue is over budget (degradation under backpressure: the newest protocol
// state is worth more than the oldest).
func (p *tcpPeer) enqueue(frame []byte) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		putFrame(frame)
		return
	}
	p.q = append(p.q, frame)
	p.qBytes += len(frame)
	dropped := 0
	for len(p.q) > p.tun.QueueFrames || p.qBytes > p.tun.QueueBytes {
		old := p.q[0]
		p.q = p.q[1:]
		p.qBytes -= len(old)
		putFrame(old)
		dropped++
	}
	p.mu.Unlock()
	if dropped > 0 {
		p.node.counters.sendqDropped.Add(int64(dropped))
	}
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// take removes every queued frame.
func (p *tcpPeer) take() [][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.q
	p.q, p.qBytes = nil, 0
	return q
}

func (p *tcpPeer) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// close shuts the supervisor down: the queue is recycled and any live
// connection is closed out from under a blocked write so the goroutine
// exits promptly.
func (p *tcpPeer) close() {
	p.mu.Lock()
	p.closed = true
	q := p.q
	p.q, p.qBytes = nil, 0
	c := p.conn
	p.conn = nil
	p.mu.Unlock()
	for _, f := range q {
		putFrame(f)
	}
	if c != nil {
		_ = c.Close()
	}
}

// notify reports a link transition to the watcher, deduplicating repeats.
func (p *tcpPeer) notify(up bool) {
	p.mu.Lock()
	if p.up == up || p.closed {
		p.mu.Unlock()
		return
	}
	p.up = up
	p.mu.Unlock()
	if up {
		p.node.counters.peerUp.Inc()
	} else {
		p.node.counters.peerDown.Inc()
	}
	if w := p.node.watcher; w != nil {
		if up {
			w.PeerUp(p.name)
		} else {
			w.PeerDown(p.name)
		}
	}
}

// pause sleeps for d, aborting early when the node closes.
func (p *tcpPeer) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.node.done:
		return false
	}
}

// jitter spreads a backoff ±25% so peers redialing the same recovered
// daemon do not thunder in lockstep.
func (p *tcpPeer) jitter(d time.Duration) time.Duration {
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	f := int64(d) / 4
	if f <= 0 {
		return d
	}
	return d - time.Duration(f/2) + time.Duration(int64(p.rng>>1)%f)
}

// run is the supervisor loop: park until woken, then drain.
func (p *tcpPeer) run() {
	for {
		select {
		case <-p.wake:
		case <-p.node.done:
			return
		}
		if !p.drain() {
			return
		}
	}
}

// drain writes queued frames until the queue is empty; false means the node
// is closing and the supervisor must exit. Each batch is whatever queued
// since the previous write: a lone frame goes out at once, and frames that
// arrive while a writev is in flight ride the next one, so batches grow
// with load without a timer.
func (p *tcpPeer) drain() bool {
	for {
		select {
		case <-p.node.done:
			return false
		default:
		}
		// One lock per batch: the closed flag, the connection and the
		// queue are read together.
		p.mu.Lock()
		closed, c, batch := p.closed, p.conn, p.q
		if !closed && c != nil {
			p.q, p.qBytes = nil, 0
		}
		p.mu.Unlock()
		if closed {
			return false
		}
		if len(batch) == 0 {
			return true
		}
		if c == nil {
			// Redial, then loop to take the queue with the new connection
			// (a peer with no address has its queue discarded instead).
			p.redial()
			continue
		}
		err := p.write(c, batch)
		recycleFrames(batch)
		if err != nil {
			_ = c.Close()
			p.mu.Lock()
			if p.conn == c {
				p.conn = nil
			}
			p.mu.Unlock()
			// Frames in the failed batch are lost (drop-on-unreachable);
			// the next iteration redials for whatever is still queued.
		}
	}
}

// write sends one batch with a write deadline; multi-frame batches go out
// as one writev through the peer's reused net.Buffers scratch.
func (p *tcpPeer) write(c net.Conn, batch [][]byte) error {
	_ = c.SetWriteDeadline(time.Now().Add(p.tun.WriteTimeout))
	if len(batch) == 1 {
		_, err := c.Write(batch[0])
		return err
	}
	p.bufs = append(p.bufs[:0], batch...)
	bufs := p.bufs // WriteTo consumes its receiver
	_, err := bufs.WriteTo(c)
	clear(p.bufs)
	return err
}

// redial dials the peer with exponential backoff until it succeeds or the
// node closes, installing the new connection. A peer with no configured
// address cannot be dialed: its queue is discarded instead.
func (p *tcpPeer) redial() {
	backoff := p.tun.BackoffMin
	fails := 0
	for {
		select {
		case <-p.node.done:
			return
		default:
		}
		if p.isClosed() {
			return
		}
		addr := p.node.net.Addr(p.name)
		if addr == "" {
			recycleFrames(p.take())
			return
		}
		p.node.counters.dialAttempts.Inc()
		raw, err := net.DialTimeout("tcp", addr, p.tun.DialTimeout)
		if err == nil {
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				_ = raw.Close()
				return
			}
			p.conn = raw
			p.mu.Unlock()
			p.notify(true)
			return
		}
		p.node.counters.dialFailures.Inc()
		fails++
		if fails >= p.tun.DownAfter {
			p.notify(false)
		}
		if !p.pause(p.jitter(backoff)) {
			return
		}
		backoff = min(2*backoff, p.tun.BackoffMax)
	}
}

func recycleFrames(batch [][]byte) {
	for _, f := range batch {
		putFrame(f)
	}
}
