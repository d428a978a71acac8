package main

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dh"
	"repro/internal/obs"
	"repro/internal/spread"
	"repro/internal/transport"
	"repro/securespread"
)

const (
	group = "bench"
	proto = securespread.ProtoCliques
	suite = securespread.SuiteBlowfish
)

// daemonConfig is the benchmark's timer set: a 5 ms heartbeat, as in the
// repository's other benchmarks.
func daemonConfig() spread.Config {
	return spread.Config{Heartbeat: 5 * time.Millisecond, SuspectAfter: 250 * time.Millisecond}
}

// placement puts member i on a daemon the way the paper's Figure 3
// topology does: m0 on d0, m1 on d1, everyone else (and the joiner) on d2.
func placement(i int) int { return min(i, 2) }

// stack is one running system under test: three daemons and the standing
// secure sessions of a workload, plus the joiner the churn phase uses.
type stack struct {
	w       *workload
	daemons []*spread.Daemon
	lns     []net.Listener
	traced  bool

	sessions []*session
	joiner   *session
	board    *viewBoard
	stream   atomic.Pointer[ledger]
	warnings atomic.Int64
	bad      atomic.Int64 // deliveries to a session outside any stream
}

// session is one secure member and the goroutine draining its events.
type session struct {
	conn    *core.Conn
	name    string
	slot    int
	recv    atomic.Int32 // receiver index in the current ledger, -1 none
	counter *dh.Counter  // traced runs only
	scope   *obs.Scope   // traced runs only
	done    chan struct{}
}

// startDaemons starts the workload's three daemons, over the in-memory
// network or over loopback TCP, and waits for their common view.
func startDaemons(w *workload) (*stack, error) {
	st := &stack{w: w, board: newViewBoard()}
	names := []string{"d00", "d01", "d02"}
	var nw transport.Network
	if w.tcp {
		addrs := map[string]string{}
		for _, n := range names {
			addrs[n] = "127.0.0.1:0"
		}
		nw = transport.NewTCPNetwork(addrs)
	} else {
		nw = transport.NewMemNetwork()
	}
	for _, n := range names {
		d, err := spread.NewDaemon(n, names, nw, daemonConfig())
		if err != nil {
			st.stop()
			return nil, err
		}
		st.daemons = append(st.daemons, d)
	}
	if err := waitViews(st.daemons, 10*time.Second); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

func waitViews(ds []*spread.Daemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ref, ok := ds[0].CurrentView()
		agree := ok && len(ref.Members) == len(ds)
		for _, d := range ds[1:] {
			if !agree {
				break
			}
			v, ok := d.CurrentView()
			agree = ok && v.ID == ref.ID && slices.Equal(v.Members, ref.Members)
		}
		if agree {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("daemons formed no common view within %v", timeout)
}

// listen makes daemon i serve remote clients on a loopback port (once).
func (st *stack) listen(i int) (string, error) {
	for len(st.lns) <= i {
		st.lns = append(st.lns, nil)
	}
	if st.lns[i] == nil {
		ln, err := st.daemons[i].ListenClients("127.0.0.1:0")
		if err != nil {
			return "", err
		}
		st.lns[i] = ln
	}
	return st.lns[i].Addr().String(), nil
}

// endpoint connects a spread client for user on daemon i: over the remote
// client protocol when remote is set, in-process otherwise.
func (st *stack) endpoint(i int, user string, remote bool) (spread.Endpoint, error) {
	if !remote {
		return st.daemons[i].Connect(user)
	}
	addr, err := st.listen(i)
	if err != nil {
		return nil, err
	}
	return spread.RemoteConnect(addr, user)
}

// connect opens a secure session for user on daemon i.
func (st *stack) connect(i int, user string, remote bool) (*session, error) {
	ep, err := st.endpoint(i, user, remote)
	if err != nil {
		return nil, err
	}
	s := &session{name: ep.Name(), done: make(chan struct{})}
	s.recv.Store(-1)
	opts := []core.Option{core.WithDHGroup(dh.Group2048)}
	if st.traced {
		s.counter = dh.NewCounter()
		// Room for a churn phase's worth of trace under the background
		// stream, so the rekey phase split sees whole rekeys.
		s.scope = obs.NewScope(s.name, "core", obs.WithTraceCap(1<<14))
		opts = append(opts, core.WithCounter(s.counter), core.WithObs(s.scope))
	}
	s.conn = core.New(ep, opts...)
	s.slot = st.board.add()
	go st.drain(s)
	return s, nil
}

func (st *stack) drain(s *session) {
	defer close(s.done)
	for ev := range s.conn.Events() {
		switch e := ev.(type) {
		case core.Message:
			l, idx := st.stream.Load(), s.recv.Load()
			if l == nil || idx < 0 {
				st.bad.Add(1) // its violations otherwise count in the ledger
				continue
			}
			l.deliver(int(idx), e.Sender, e.Data)
		case core.SecureView:
			st.board.view(s.slot, e)
		case core.SelfLeave:
			st.board.leave(s.slot)
		case core.Warning:
			st.warnings.Add(1)
			logOnce("%s: warning: %v", s.name, e.Err)
		}
	}
}

// join adds member i of the workload and waits until every member so far
// holds the same secure view.
func (st *stack) join(i int) error {
	s, err := st.connect(placement(i), fmt.Sprintf("m%d", i), st.w.tcp)
	if err != nil {
		return err
	}
	st.sessions = append(st.sessions, s)
	if err := s.conn.Join(group, proto, suite); err != nil {
		return err
	}
	_, _, err = st.board.await(st.sessions, 1, 30*time.Second)
	return err
}

// setup builds the workload's system: daemons, then the standing members
// joined one at a time, each until everyone holds a secure view.
func setup(w *workload, traced bool) (*stack, time.Duration, error) {
	t0 := time.Now()
	st, err := startDaemons(w)
	if err != nil {
		return nil, 0, err
	}
	st.traced = traced
	for i := 0; i < w.members; i++ {
		if err := st.join(i); err != nil {
			st.stop()
			return nil, 0, fmt.Errorf("setup join m%d: %w", i, err)
		}
	}
	return st, time.Since(t0), nil
}

func (st *stack) stop() {
	all := append([]*session(nil), st.sessions...)
	if st.joiner != nil {
		all = append(all, st.joiner)
	}
	for _, s := range all {
		_ = s.conn.Disconnect()
	}
	for _, d := range st.daemons {
		d.Stop()
	}
	for _, s := range all {
		select {
		case <-s.done:
		case <-time.After(5 * time.Second):
		}
	}
}

// senders returns the Multicast functions of the workload's sending
// members, and their names for the ledger.
func (st *stack) senders(n int) ([]sender, []string) {
	var fs []sender
	var names []string
	for _, s := range st.sessions[:n] {
		c := s.conn
		fs = append(fs, func(b []byte) error { return c.Multicast(group, b) })
		names = append(names, s.name)
	}
	return fs, names
}

// use points every standing session's drain at l, receiver index = member
// index, and drops the joiner from the previous ledger.
func (st *stack) use(l *ledger) {
	for i, s := range st.sessions {
		s.recv.Store(int32(i))
	}
	if st.joiner != nil {
		st.joiner.recv.Store(-1)
	}
	st.stream.Store(l)
}

// viewBoard tracks each session's latest secure view, so an operation's
// end is the moment the last member received its view — not a poll tick.
type viewBoard struct {
	mu      sync.Mutex
	views   []viewRec
	changed chan struct{}
}

type viewRec struct {
	ok      bool // a secure view is in force (false after SelfLeave)
	epoch   uint64
	members []string
	digest  []byte
	at      time.Time
}

func newViewBoard() *viewBoard { return &viewBoard{changed: make(chan struct{})} }

func (b *viewBoard) add() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.views = append(b.views, viewRec{})
	return len(b.views) - 1
}

func (b *viewBoard) set(slot int, r viewRec) {
	b.mu.Lock()
	b.views[slot] = r
	close(b.changed)
	b.changed = make(chan struct{})
	b.mu.Unlock()
}

func (b *viewBoard) view(slot int, v core.SecureView) {
	if v.Group != group {
		return
	}
	m := slices.Clone(v.Members)
	slices.Sort(m)
	b.set(slot, viewRec{ok: true, epoch: v.Epoch, members: m, digest: v.KeyDigest, at: time.Now()})
}

func (b *viewBoard) leave(slot int) { b.set(slot, viewRec{at: time.Now()}) }

// errDiverged marks a rekey whose members disagree on view or key.
type errDiverged struct{ what string }

func (e errDiverged) Error() string { return "rekey diverged: " + e.what }

// await blocks until every listed session holds a secure view of exactly
// the listed members at one common epoch >= minEpoch, and returns that
// epoch and when the last member got there. Members that reach one epoch
// with different digests fail with errDiverged.
func (b *viewBoard) await(ss []*session, minEpoch uint64, timeout time.Duration) (uint64, time.Time, error) {
	want := make([]string, len(ss))
	for i, s := range ss {
		want[i] = s.name
	}
	slices.Sort(want)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		b.mu.Lock()
		ch := b.changed
		epoch, at, done, err := b.settledLocked(ss, want, minEpoch)
		b.mu.Unlock()
		if done || err != nil {
			return epoch, at, err
		}
		select {
		case <-ch:
		case <-timer.C:
			return 0, time.Time{}, fmt.Errorf("no common secure view of %v at epoch >= %d within %v", want, minEpoch, timeout)
		}
	}
}

func (b *viewBoard) settledLocked(ss []*session, want []string, minEpoch uint64) (uint64, time.Time, bool, error) {
	var at time.Time
	ref := b.views[ss[0].slot]
	for _, s := range ss {
		r := b.views[s.slot]
		if !r.ok || r.epoch < minEpoch || r.epoch != ref.epoch || !slices.Equal(r.members, want) {
			return 0, at, false, nil
		}
		if !bytes.Equal(r.digest, ref.digest) {
			return 0, at, false, errDiverged{fmt.Sprintf("key digests differ at epoch %d", r.epoch)}
		}
		if r.at.After(at) {
			at = r.at
		}
	}
	return ref.epoch, at, true, nil
}

// awaitLeft blocks until the session's SelfLeave arrived.
func (b *viewBoard) awaitLeft(s *session, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		b.mu.Lock()
		ch, ok := b.changed, b.views[s.slot].ok
		b.mu.Unlock()
		if !ok {
			return nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("%s: no SelfLeave within %v", s.name, timeout)
		}
	}
}

// confirm cross-checks a settled rekey against each member's own key
// confirmation: the same epoch and digest the secure views announced.
func confirm(ss []*session, epoch uint64) error {
	var ref []byte
	for _, s := range ss {
		e, d, ok := s.conn.KeyConfirmation(group)
		if !ok || e != epoch {
			return errDiverged{fmt.Sprintf("%s confirms epoch %d (ok=%v), want %d", s.name, e, ok, epoch)}
		}
		if ref == nil {
			ref = d
		} else if !bytes.Equal(d, ref) {
			return errDiverged{fmt.Sprintf("%s key confirmation differs at epoch %d", s.name, epoch)}
		}
	}
	return nil
}
