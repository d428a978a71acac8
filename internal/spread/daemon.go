package spread

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wirecodec"
)

// Errors returned by the daemon and client API.
var (
	ErrStopped      = errors.New("spread: daemon stopped")
	ErrDisconnected = errors.New("spread: client disconnected")
	ErrBadName      = errors.New("spread: invalid name")
)

// Daemon is one group communication daemon. It runs a single event-loop
// goroutine; all protocol state is confined to that goroutine. Clients
// connect in-process (the daemon-client architecture of Section 3) and
// interact through the Client type.
type Daemon struct {
	name  string
	cfg   Config
	peers []string // all configured daemon names, including self
	node  transport.Node

	inbox chan inboundMsg
	acts  chan func()
	stop  chan struct{}
	done  chan struct{}

	// --- everything below is owned by the event loop ---

	view View
	// viewStr caches view.ID.String(): the data fast path stamps every
	// wire trace event with it, and formatting it per message is
	// measurable. It changes only on view installs.
	viewStr  string
	maxEpoch uint64
	lts      uint64
	seq      uint64

	lastHeard map[string]time.Time
	seenLTS   map[string]uint64
	stable    map[string]uint64

	deliveredSeq map[string]uint64
	pending      map[string]*msgQueue // per sender, sorted by seq
	retained     map[msgKey]*dataMsg
	// retainedQ mirrors retained in insertion order. Agreed delivery is
	// LTS order, so the stability sweep pops an ordered prefix instead of
	// scanning the whole map every tick; retainedHead marks the consumed
	// prefix (compacted, never resliced, so no q = q[1:] retention).
	retainedQ    []msgKey
	retainedHead int
	futureMsgs   []*dataMsg // data for views not yet installed

	// AGREED delivery candidates: every contiguous, ordered queue head is
	// registered here keyed (LTS, sender), so delivering the next agreed
	// message is a heap pop instead of a scan over every sender. agreedSeq
	// remembers which seq per sender is registered (dedup + lazy deletion).
	agreed    agreedHeap
	agreedSeq map[string]uint64

	// Per-sender gap-free prefix of the current view's sequence space:
	// contigSeq is the highest seq through which every message has been
	// received (delivered or pending), contigLTS the Lamport timestamp of
	// that last contiguous message. seenLTS may only advance along the
	// contiguous prefix — advancing it past a link-dropped message would
	// move the agreed horizon over a hole and desynchronize delivery.
	contigSeq map[string]uint64
	contigLTS map[string]uint64
	lastNack  map[string]time.Time // per-origin retransmission request limiter

	form formingState
	// formingSince marks the start of the current forming *streak*: set
	// when forming (re)activates, cleared only by a view install. Rounds
	// superseding each other keep the original stamp, so a cluster that
	// churns rounds without ever installing shows up as one long wedge in
	// Readiness rather than a series of fresh attempts.
	formingSince time.Time

	groups     map[string]*group
	prevGroups map[string]*group // snapshot taken at view install
	clients    map[string]*Client

	// clientGroups tracks each local client's requested memberships: a
	// group is added when the client submits a join and removed on its
	// leave. Group maps lag behind in-flight joins, so a disconnect must
	// consult this intent record — not the membership — to know which
	// groups need a departure announcement.
	clientGroups map[string]map[string]bool

	// announcedLTS is the clock this daemon last put on the wire to its
	// view (periodic heartbeat, echo, or its own data broadcast); echoDue
	// asks the event loop for a horizon echo once the current burst of
	// events has been handled (see flushEcho).
	announcedLTS uint64
	echoDue      bool

	// Submit-ring plumbing: clients push data payloads into their own
	// bounded ring and ask (at most once per outstanding drain) for a
	// wake-up here; the event loop drains whole batches. subMu guards
	// subReady; subCh carries the level-triggered wake-up.
	subMu      sync.Mutex
	subReady   []*Client
	subCh      chan struct{}
	subScratch []payload // loop-owned drain buffer, reused across batches

	// deliverHook, when set, observes every delivered message before its
	// payload is processed (differential ordering tests).
	deliverHook func(*dataMsg)

	obs      *obs.Scope
	log      *obs.Logger
	counters statsCounters
	sec      *daemonSec

	stateWait    map[string]bool
	stateEntries map[string][]stateEntry
	stateSeqs    map[string]uint64 // max ViewSeq per group from state exchange
	bufferedMsgs []*dataMsg        // payload delivery deferred during state wait
	queuedOps    []queuedOp        // client ops deferred during forming/state wait
}

type inboundMsg struct {
	from string
	data []byte
}

type queuedOp struct {
	p payload
}

// formingState tracks an in-progress daemon membership round. Rounds are
// globally ordered by (round, coord); each daemon remembers the highest
// round it has seen anywhere so new attempts always supersede old ones.
type formingState struct {
	active    bool
	round     uint64
	coord     string
	isCoord   bool
	frozen    bool // syncAck sent: no more old-view data accepted
	proposals map[string]bool
	acks      map[string]*syncAckMsg
	synced    []string
	gatherAt  time.Time
	deadline  time.Time

	// maxRound is the highest round seen in any membership message.
	maxRound uint64
	// lastAcked identifies the (round, coord) whose SYNC we last
	// acknowledged; only a matching INSTALL is accepted.
	ackedRound uint64
	ackedCoord string
}

// NewDaemon creates and starts a daemon attached to the network. peers
// lists every daemon name in the configuration (like Spread's segment
// configuration); the daemon starts in a singleton view and merges with
// peers it hears from.
func NewDaemon(name string, peers []string, net transport.Network, cfg Config) (*Daemon, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty daemon name", ErrBadName)
	}
	d := &Daemon{
		name:         name,
		cfg:          cfg.withDefaults(),
		peers:        slices.Clone(peers),
		inbox:        make(chan inboundMsg, 16384),
		acts:         make(chan func(), 1024),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		lastHeard:    make(map[string]time.Time),
		seenLTS:      make(map[string]uint64),
		stable:       make(map[string]uint64),
		deliveredSeq: make(map[string]uint64),
		pending:      make(map[string]*msgQueue),
		agreedSeq:    make(map[string]uint64),
		subCh:        make(chan struct{}, 1),
		retained:     make(map[msgKey]*dataMsg),
		contigSeq:    make(map[string]uint64),
		contigLTS:    make(map[string]uint64),
		lastNack:     make(map[string]time.Time),
		groups:       make(map[string]*group),
		prevGroups:   make(map[string]*group),
		clients:      make(map[string]*Client),
		clientGroups: make(map[string]map[string]bool),
	}
	d.obs = obs.NewScope(name, "spread")
	d.log = d.obs.Log
	d.counters = newStatsCounters(d.obs.Reg)
	if !slices.Contains(d.peers, name) {
		d.peers = append(d.peers, name)
	}
	sort.Strings(d.peers)

	node, err := net.Attach(name, daemonHandler{d})
	if err != nil {
		return nil, fmt.Errorf("attach daemon %s: %w", name, err)
	}
	d.node = node

	// Start in a singleton view.
	d.maxEpoch = 1
	d.view = View{ID: ViewID{Epoch: 1, Coord: name}, Members: []string{name}}
	d.viewStr = d.view.ID.String()
	d.stateWait = map[string]bool{}
	d.stateEntries = map[string][]stateEntry{}
	d.stateSeqs = map[string]uint64{}
	if d.cfg.DaemonKeying {
		d.sec = newDaemonSec(d.cfg.DaemonKeyProto, d.cfg.DaemonKeySuite)
		d.secReset()
	}

	go d.run()
	return d, nil
}

// Name returns the daemon's name.
func (d *Daemon) Name() string { return d.name }

// Stop shuts the daemon down and disconnects its clients.
func (d *Daemon) Stop() {
	select {
	case <-d.stop:
		return
	default:
	}
	close(d.stop)
	<-d.done
}

// CurrentView returns the daemon's installed view (for tests and tools).
// ok is false when the daemon has stopped — a zero View is then a liveness
// signal, not an empty membership.
func (d *Daemon) CurrentView() (view View, ok bool) {
	ch := make(chan View, 1)
	if err := d.do(func() {
		ch <- View{ID: d.view.ID, Members: slices.Clone(d.view.Members)}
	}); err != nil {
		return View{}, false
	}
	return <-ch, true
}

// do runs fn on the event loop and waits for it to be picked up.
func (d *Daemon) do(fn func()) error {
	doneCh := make(chan struct{})
	wrapped := func() {
		fn()
		close(doneCh)
	}
	select {
	case d.acts <- wrapped:
	case <-d.stop:
		return ErrStopped
	}
	select {
	case <-doneCh:
		return nil
	case <-d.done:
		return ErrStopped
	}
}

// daemonHandler is the daemon's transport-facing surface: inbound messages
// plus the optional extensions — link supervision events (PeerWatcher) and
// the daemon's metrics registry (MetricsProvider), so supervised transports
// report dial failures and queue drops into the daemon's own scope.
type daemonHandler struct{ d *Daemon }

func (h daemonHandler) HandleMessage(from string, data []byte) { h.d.handleTransport(from, data) }

func (h daemonHandler) ObsRegistry() *obs.Registry { return h.d.obs.Reg }

func (h daemonHandler) PeerUp(peer string)   { h.d.onPeerEvent(peer, true) }
func (h daemonHandler) PeerDown(peer string) { h.d.onPeerEvent(peer, false) }

var (
	_ transport.PeerWatcher     = daemonHandler{}
	_ transport.MetricsProvider = daemonHandler{}
)

func (d *Daemon) handleTransport(from string, data []byte) {
	select {
	case d.inbox <- inboundMsg{from: from, data: data}:
	case <-d.stop:
	}
}

// onPeerEvent forwards a transport link transition onto the event loop.
// Events are advisory (heartbeats stay the failure-detection source of
// truth), so a full acts queue drops the event rather than blocking the
// transport's supervisor goroutine.
func (d *Daemon) onPeerEvent(peer string, up bool) {
	select {
	case d.acts <- func() { d.peerTransition(peer, up) }:
	case <-d.stop:
	default:
	}
}

// peerTransition reacts to a supervised link changing state. A peer-down
// for a current view member is treated like an expired heartbeat: the
// member is dropped from the reachability estimate and a membership round
// starts immediately, so flush rounds above do not stall for SuspectAfter
// waiting on a dead socket. Peer-up is recorded but deliberately does not
// touch lastHeard — a TCP dial succeeding proves a listener exists, not
// that the daemon behind it is live; its heartbeats will say so.
func (d *Daemon) peerTransition(peer string, up bool) {
	if up {
		d.obs.Record(obs.Event{Comp: "spread", Kind: "peer-up", Detail: peer})
		return
	}
	d.obs.Record(obs.Event{Comp: "spread", Kind: "peer-down", Detail: peer})
	if d.form.active || !slices.Contains(d.view.Members, peer) || peer == d.name {
		return
	}
	delete(d.lastHeard, peer) // excluded from the next reachable estimate
	d.obs.Reg.Counter("spread_peer_down_evictions").Inc()
	d.startForming()
}

// run is the daemon event loop.
func (d *Daemon) run() {
	defer close(d.done)
	defer d.node.Close()
	ticker := time.NewTicker(d.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			d.shutdownClients()
			return
		case in := <-d.inbox:
			// One clock read covers the whole burst below: liveness
			// tracking needs heartbeat-granularity timestamps, not a
			// monotonic read per data frame.
			now := time.Now()
			d.handleInbound(in, now)
			// Opportunistically drain a bounded burst of queued frames:
			// under bulk load this amortizes the select overhead without
			// starving acts, submits, or the ticker.
			for i := 0; i < 128; i++ {
				select {
				case in = <-d.inbox:
					d.handleInbound(in, now)
				default:
					i = 128
				}
			}
		case <-d.subCh:
			d.drainSubmits()
		case fn := <-d.acts:
			fn()
		case <-ticker.C:
			d.tick()
		}
		if d.echoDue {
			d.flushEcho()
		}
	}
}

func (d *Daemon) handleInbound(in inboundMsg, now time.Time) {
	msg, ext, err := decodeWireExt(in.data)
	if err != nil {
		d.counters.droppedDecode.Inc() // corrupt frame
		return
	}
	d.counters.countRecv(msg.Kind, len(in.data))
	d.observeWireExt(in.from, msg.Kind, ext)
	d.dispatch(in.from, msg, now)
}

// notifySubmit marks a client's ring as ready and wakes the event loop.
// Called from client goroutines; subCh is level-triggered (capacity 1).
func (d *Daemon) notifySubmit(c *Client) {
	d.subMu.Lock()
	d.subReady = append(d.subReady, c)
	d.subMu.Unlock()
	select {
	case d.subCh <- struct{}{}:
	default:
	}
}

// drainSubmits runs on the event loop: it claims the ready list and drains
// each client's submit ring in batch.
func (d *Daemon) drainSubmits() {
	d.subMu.Lock()
	ready := d.subReady
	d.subReady = nil
	d.subMu.Unlock()
	for _, c := range ready {
		d.drainClientRing(c)
	}
}

// drainClientRing flushes every queued data payload from one client's ring
// through the normal submit path, preserving the client's FIFO order. A
// payload processed here can re-enter this function (a delivery can
// overflow an event queue and disconnect the client), so the scratch
// buffer is claimed for the duration — a nested drain allocates its own.
func (d *Daemon) drainClientRing(c *Client) {
	if c.ring == nil {
		return
	}
	scratch := d.subScratch
	d.subScratch = nil
	batch := c.ring.drain(scratch[:0])
	for i := range batch {
		if d.clients[c.name] != c {
			break // disconnected mid-batch: the rest is undeliverable
		}
		d.submit(batch[i])
	}
	clear(batch)
	d.subScratch = batch[:0]
}

func (d *Daemon) shutdownClients() {
	for _, c := range d.clients {
		c.close(ErrStopped)
	}
	d.clients = map[string]*Client{}
}

func (d *Daemon) dispatch(from string, m *wireMsg, now time.Time) {
	d.lastHeard[from] = now
	switch m.Kind {
	case kindHeartbeat:
		d.onHeartbeat(from, m.HB)
	case kindData:
		d.onData(m.Data)
	case kindPropose:
		d.onPropose(from, m.Prop)
	case kindSync:
		d.onSync(from, m.Sync)
	case kindSyncAck:
		d.onSyncAck(from, m.SyncAck)
	case kindInstall:
		d.onInstall(from, m.Install)
	case kindSecAnnounce:
		d.onSecAnnounce(from, m.Sec)
	case kindSecKGA:
		d.onSecKGA(from, m.Sec)
	case kindSecData:
		d.onSecData(from, m.Sec)
	case kindNack:
		d.onNack(from, m.Nack)
	}
}

// tick drives heartbeats, failure detection and protocol timeouts.
func (d *Daemon) tick() {
	now := time.Now()

	// Heartbeats go to every configured peer: within the view they
	// advance the agreed-delivery horizon; outside they are the
	// discovery mechanism for merges.
	d.sendHeartbeat(d.peers)

	// Failure detection: a silent view member triggers a membership
	// change.
	if !d.form.active {
		for _, member := range d.view.Members {
			if member == d.name {
				continue
			}
			heard, ok := d.lastHeard[member]
			if !ok || now.Sub(heard) > d.cfg.SuspectAfter {
				d.startForming()
				break
			}
		}
	}

	d.formingTimers(now)
	d.gcRetained()
}

// receiveHorizon is the LTS through which this daemon has received every
// message from every view member (FIFO links make per-sender horizons
// prefix-complete).
func (d *Daemon) receiveHorizon() uint64 {
	h := d.lts
	for _, member := range d.view.Members {
		if member == d.name {
			continue
		}
		if s := d.seenLTS[member]; s < h {
			h = s
		}
	}
	return h
}

// stabilityHorizon is the LTS through which every view member has received
// everything; retained messages at or below it can never be needed for
// recovery.
func (d *Daemon) stabilityHorizon() uint64 {
	h := d.receiveHorizon()
	for _, member := range d.view.Members {
		if member == d.name {
			continue
		}
		if s := d.stable[member]; s < h {
			h = s
		}
	}
	return h
}

func (d *Daemon) gcRetained() {
	if len(d.retained) == 0 {
		return
	}
	h := d.stabilityHorizon()
	// Delivery order is LTS order, so retainedQ's stable prefix is
	// exactly the entries at or below the horizon: pop until the first
	// survivor, O(deleted) per tick instead of O(retained).
	for d.retainedHead < len(d.retainedQ) {
		k := d.retainedQ[d.retainedHead]
		if m, ok := d.retained[k]; ok {
			if m.LTS > h {
				break
			}
			delete(d.retained, k)
		}
		d.retainedHead++
	}
	if d.retainedHead == len(d.retainedQ) {
		d.retainedQ, d.retainedHead = d.retainedQ[:0], 0
	} else if d.retainedHead >= 64 && d.retainedHead > len(d.retainedQ)/2 {
		n := copy(d.retainedQ, d.retainedQ[d.retainedHead:])
		d.retainedQ, d.retainedHead = d.retainedQ[:n], 0
	}
	d.counters.retainedGauge.Set(int64(len(d.retained)))
}

func (d *Daemon) onHeartbeat(from string, hb *hbMsg) {
	if hb == nil {
		return
	}
	if hb.LTS > d.lts {
		d.lts = hb.LTS
	}
	inView := slices.Contains(d.view.Members, from)
	if inView && hb.View == d.view.ID {
		if hb.Seq > d.contigSeq[from] {
			// The sender originated messages we never received: the link
			// dropped them. Ask for retransmission and keep the horizon
			// pinned at the contiguous prefix until the gap closes.
			d.requestMissing(from, from, d.contigSeq[from]+1, hb.Seq)
		} else if hb.LTS > d.seenLTS[from] {
			// All originated messages are accounted for, so the advertised
			// clock hides no undelivered data.
			d.seenLTS[from] = hb.LTS
			d.tryDeliver()
		}
		if hb.Stable > d.stable[from] {
			d.stable[from] = hb.Stable
		}
		return
	}
	// A daemon outside our view means a merge is possible; a view member
	// whose view moved AHEAD of ours installed a view without us. Either
	// way the membership must change. Heartbeats still carrying an older
	// view are just in flight from before our install and must not
	// re-trigger formation (ping-pong churn).
	if inView && !d.view.ID.Less(hb.View) {
		return
	}
	if !d.form.active {
		d.startForming()
	}
}

// bumpLTS advances the Lamport clock for a locally originated message.
func (d *Daemon) bumpLTS() uint64 {
	d.lts++
	return d.lts
}

// broadcastData originates a data message in the current view: it is
// delivered locally through the same path as remote messages and sent to
// every other view member. Under daemon keying, outbound traffic is held
// until the view is keyed and then travels encrypted.
//
// While a membership change is in flight (forming, frozen, or a state
// exchange), everything except the state exchange itself is deferred:
// a message originated after this daemon contributed its delivery cut
// would be dropped by every frozen receiver AND missing from the cut —
// silently lost. Deferred payloads replay when the configuration
// stabilizes.
func (d *Daemon) broadcastData(p payload) {
	if p.Kind != payGroupState && (d.form.active || d.form.frozen || len(d.stateWait) > 0) {
		d.queuedOps = append(d.queuedOps, queuedOp{p: p})
		return
	}
	if d.sec != nil && !d.sec.ready {
		d.sec.held = append(d.sec.held, p)
		return
	}
	d.seq++
	d.counters.msgsSent.Inc()
	m := &dataMsg{
		View:   d.view.ID,
		Sender: d.name,
		Seq:    d.seq,
		LTS:    d.bumpLTS(),
		P:      p,
	}
	// One pooled encode of the inner frame; under daemon keying it is
	// sealed and wrapped in place (secSealEncode) rather than re-encoded,
	// so the seal→encode→send chain copies the payload once. Data frames
	// propagate the clock without recording a trace event: the causal
	// chain the checkers rely on rides the flush layer's send→deliver
	// edge, and two ring writes per message are measurable at bulk rates.
	inner, err := encodeWireExtTo(wirecodec.GetBuf(), &wireMsg{Kind: kindData, Data: m}, d.clockExt())
	if err == nil {
		enc, kind := inner, kindData
		var sealed []byte
		if d.sec != nil && d.sec.suite != nil {
			if sb, serr := d.secSealEncode(inner); serr == nil {
				sealed, enc, kind = sb, sb, kindSecData
			}
		}
		for _, member := range d.view.Members {
			if member != d.name {
				d.counters.countSent(kind, len(enc))
				_ = d.node.Send(member, enc)
			}
		}
		d.announcedLTS = m.LTS
		wirecodec.PutBuf(sealed)
	}
	wirecodec.PutBuf(inner)
	d.onData(m)
}

// onData accepts a data message into the per-sender pending queue and
// attempts delivery.
func (d *Daemon) onData(m *dataMsg) {
	if m == nil {
		return
	}
	if m.View != d.view.ID {
		// Messages from views we have not installed yet are buffered;
		// messages from superseded views are dropped (their delivery
		// cut already closed).
		if d.view.ID.Less(m.View) {
			d.futureMsgs = append(d.futureMsgs, m)
		}
		return
	}
	if d.form.frozen {
		// We already contributed our delivery-cut state; late old-view
		// messages are recovered from the union or lost for everyone.
		return
	}
	d.acceptData(m)
	// Only this sender's FIFO chain and the agreed heap can have been
	// unblocked; no need to rescan every sender.
	d.deliverReady(m.Sender)
	d.drainAgreed()
	// Agreed-class delivery waits until every member's clock passes the
	// message timestamp, so each agreed receipt asks for an echo of this
	// daemon's clock: idle members then advance the horizon in one round
	// trip rather than one heartbeat interval.
	if m.ordered() {
		d.echoDue = true
	}
}

// flushEcho runs once per event-loop iteration that received agreed data:
// it sends one out-of-schedule heartbeat to the view members covering the
// whole burst, unless the clock it would carry has already been announced.
func (d *Daemon) flushEcho() {
	d.echoDue = false
	if d.lts > d.announcedLTS {
		d.sendHeartbeat(d.view.Members)
	}
}

// sendHeartbeat announces this daemon's clock, receive horizon and
// sequence number to the listed daemons (self excluded).
func (d *Daemon) sendHeartbeat(to []string) {
	hb := &wireMsg{Kind: kindHeartbeat, HB: &hbMsg{
		View:   d.view.ID,
		LTS:    d.lts,
		Stable: d.receiveHorizon(),
		Seq:    d.seq,
	}}
	// Pooled encode: transports copy on Send, so the buffer recycles as
	// soon as the fan-out loop finishes.
	data, err := encodeWireExtTo(wirecodec.GetBuf(), hb, d.clockExt())
	if err == nil {
		for _, p := range to {
			if p != d.name {
				d.counters.countSent(kindHeartbeat, len(data))
				_ = d.node.Send(p, data)
			}
		}
		d.announcedLTS = d.lts
	}
	wirecodec.PutBuf(data)
}

// acceptData inserts a message into the pending structures (idempotent).
// The per-sender horizon advances only along the contiguous sequence
// prefix; a message beyond a gap parks in pending and triggers a
// retransmission request instead.
func (d *Daemon) acceptData(m *dataMsg) {
	if m.LTS > d.lts {
		d.lts = m.LTS
	}
	if m.Seq <= d.deliveredSeq[m.Sender] {
		return // already delivered
	}
	if _, dup := d.retained[m.key()]; dup {
		return
	}
	q := d.pending[m.Sender]
	if q == nil {
		q = &msgQueue{}
		d.pending[m.Sender] = q
	}
	pos, found := q.search(m.Seq)
	if found {
		return
	}
	q.insert(pos, m)
	d.advanceContig(m.Sender)
}

// advanceContig extends the sender's gap-free prefix through the pending
// queue, advances the agreed horizon along it, and requests retransmission
// for any remaining hole.
func (d *Daemon) advanceContig(sender string) {
	cs := d.contigSeq[sender]
	lts := d.contigLTS[sender]
	q := d.pending[sender]
	n := q.len()
	// Binary-search past the already-counted prefix (entries awaiting the
	// delivery horizon): with a deep backlog a linear skip here turns every
	// insert into an O(backlog) walk.
	i, _ := q.search(cs + 1)
	for i < n && q.at(i).Seq == cs+1 {
		cs++
		lts = q.at(i).LTS
		i++
	}
	d.contigSeq[sender] = cs
	d.contigLTS[sender] = lts
	if lts > d.seenLTS[sender] {
		d.seenLTS[sender] = lts
	}
	if i < n {
		// Entries beyond the prefix mean the link dropped the sequence
		// numbers in between.
		d.requestMissing(sender, sender, cs+1, q.at(i).Seq-1)
	}
}

// requestMissing NACKs a per-sender sequence gap to a view member, which
// retransmits from its retained buffer. Rate-limited to one request per
// origin per heartbeat interval; the gap re-arms it on the next heartbeat
// if the retransmission was itself lost.
func (d *Daemon) requestMissing(to, origin string, from, upto uint64) {
	if upto < from || to == d.name || !slices.Contains(d.view.Members, to) {
		return
	}
	now := time.Now()
	if now.Sub(d.lastNack[origin]) < d.cfg.Heartbeat {
		return
	}
	d.lastNack[origin] = now
	d.counters.nacksSent.Inc()
	d.log.Debugf("%s: nack to %s for %s[%d,%d]", d.name, to, origin, from, upto)
	d.sendTo(to, &wireMsg{Kind: kindNack, Nack: &nackMsg{
		View:   d.view.ID,
		Sender: origin,
		From:   from,
		To:     upto,
	}})
}

// onNack retransmits the requested messages from the retained and pending
// buffers to the requester. Stability GC cannot have discarded them: the
// requester's stalled receive horizon holds the stability horizon below
// the missing timestamps.
func (d *Daemon) onNack(from string, n *nackMsg) {
	if n == nil || n.View != d.view.ID {
		return // the view change machinery recovers across views
	}
	upto := n.To
	if upto < n.From {
		return
	}
	if upto-n.From > 4096 {
		upto = n.From + 4096 // cap a malformed or hostile range
	}
	for seq := n.From; seq <= upto; seq++ {
		m := d.retained[msgKey{Sender: n.Sender, Seq: seq}]
		if m == nil {
			if q := d.pending[n.Sender]; q != nil {
				m = q.find(seq)
			}
		}
		if m == nil {
			continue
		}
		d.resendData(from, m)
	}
}

// resendData re-sends one data message to a single daemon, sealed exactly
// like the original broadcast when daemon keying is on.
func (d *Daemon) resendData(to string, m *dataMsg) {
	inner, err := encodeWireExtTo(wirecodec.GetBuf(), &wireMsg{Kind: kindData, Data: m}, d.clockExt())
	if err != nil {
		wirecodec.PutBuf(inner)
		return
	}
	enc, kind := inner, kindData
	var sealed []byte
	if d.sec != nil && d.sec.suite != nil {
		if sb, serr := d.secSealEncode(inner); serr == nil {
			sealed, enc, kind = sb, sb, kindSecData
		}
	}
	d.counters.msgsRetransmitted.Inc()
	d.counters.countSent(kind, len(enc))
	_ = d.node.Send(to, enc)
	wirecodec.PutBuf(sealed)
	wirecodec.PutBuf(inner)
}

// tryDeliver delivers every message whose ordering constraints are met:
// per-sender contiguous sequence numbers always; for AGREED-class traffic,
// global (LTS, sender) order up to the horizon every member has passed.
// It is the full rescan used by horizon advances and view transitions; the
// per-message hot path calls deliverReady/drainAgreed directly.
func (d *Daemon) tryDeliver() {
	for sender := range d.pending {
		d.deliverReady(sender)
	}
	d.drainAgreed()
}

// deliverReady drains one sender's queue as far as ordering allows:
// FIFO-class heads deliver as soon as they are contiguous; the first
// contiguous AGREED-class head is registered in the heap (it must also
// wait for the delivery horizon) and drainAgreed takes over from there.
func (d *Daemon) deliverReady(sender string) {
	q := d.pending[sender]
	if q == nil {
		return
	}
	for q.len() > 0 {
		m := q.front()
		if m.Seq != d.deliveredSeq[sender]+1 {
			return
		}
		if m.ordered() {
			if d.agreedSeq[sender] != m.Seq {
				d.agreedSeq[sender] = m.Seq
				d.agreed.push(agreedEntry{lts: m.LTS, sender: sender, seq: m.Seq})
			}
			return
		}
		q.popFront()
		d.deliver(m)
	}
}

// drainAgreed delivers AGREED-class heads in global (LTS, sender) order up
// to the receive horizon: repeated heap pops instead of per-message scans
// over every sender. Entries are validated against live queue state when
// popped; stale ones (superseded by a view flush race or re-registration)
// are simply discarded. The horizon is cached and recomputed only when the
// top entry sits beyond it — deliveries advance clocks monotonically, so a
// recheck can only widen it.
func (d *Daemon) drainAgreed() {
	if d.agreed.len() == 0 {
		return
	}
	horizon := d.receiveHorizon()
	for d.agreed.len() > 0 {
		top := d.agreed.peek()
		if top.lts > horizon {
			horizon = d.receiveHorizon()
			if top.lts > horizon {
				return
			}
		}
		d.agreed.pop()
		if d.agreedSeq[top.sender] == top.seq {
			delete(d.agreedSeq, top.sender)
		}
		q := d.pending[top.sender]
		if q == nil || q.len() == 0 {
			continue
		}
		m := q.front()
		if m.Seq != top.seq || m.Seq != d.deliveredSeq[top.sender]+1 || !m.ordered() {
			continue // stale entry
		}
		q.popFront()
		d.deliver(m)
		d.deliverReady(top.sender) // re-register the sender's next head
	}
}

// resetDelivery clears the pending queues and the agreed heap (view
// installs start the new view's sequence space from scratch).
func (d *Daemon) resetDelivery() {
	d.pending = make(map[string]*msgQueue)
	d.agreed = d.agreed[:0]
	d.agreedSeq = make(map[string]uint64)
}

// deliver commits a message: it is retained for view-change recovery and
// its payload is processed (or buffered during a state exchange).
func (d *Daemon) deliver(m *dataMsg) {
	if d.deliverHook != nil {
		d.deliverHook(m)
	}
	d.counters.msgsDelivered.Inc()
	d.deliveredSeq[m.Sender] = m.Seq
	d.retained[m.key()] = m
	d.retainedQ = append(d.retainedQ, m.key())
	d.counters.retainedGauge.Set(int64(len(d.retained)))
	if len(d.stateWait) > 0 && m.P.Kind != payGroupState {
		d.bufferedMsgs = append(d.bufferedMsgs, m)
		return
	}
	d.processPayload(m)
}
