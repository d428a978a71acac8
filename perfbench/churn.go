package main

import (
	"math/rand/v2"
	"time"
)

// churnResult is what one churn phase measured: each operation's time from
// the call until every member held the new key, the background stream,
// and (traced runs) the exponentiations each operation cost the group.
type churnResult struct {
	join, leave, refresh []float64 // ns
	exps                 map[string][]float64
	stream               phase
	ledger               *ledger
	ops, failedOps       int
}

// churn cycles a joiner on d2 through join and leave, then has a seeded
// standing member refresh the key, for dur. With rate > 0, member 0 sends
// a stream at that rate throughout, which the rekeys interrupt: sends
// refused while a rekey runs are counted, not failed. A rekey that fails
// ends the phase and counts in failedOps; the error is for a phase that
// could not start.
func (st *stack) churn(seed uint64, dur time.Duration, rate float64, tr *tracer) (*churnResult, error) {
	rng := rand.New(rand.NewPCG(seed, 0xc4a7))
	res := &churnResult{exps: map[string][]float64{}}
	if st.joiner == nil {
		j, err := st.connect(2, "joiner", false)
		if err != nil {
			return nil, err
		}
		st.joiner = j
	}
	streamDone := make(chan phase, 1)
	if rate > 0 {
		send, names := st.senders(1)
		l := newLedger(seed^0xbac6, st.w.size, int(rate*dur.Seconds())+16, names, len(st.sessions))
		st.use(l)
		st.joiner.recv.Store(int32(l.addReceiver()))
		res.ledger = l
		go func() { streamDone <- openLoop(l, send, rate, dur, nil, "") }()
	} else {
		st.use(nil)
		close(streamDone)
	}

	all := append(append([]*session(nil), st.sessions...), st.joiner)
	epoch, _, err := st.board.await(st.sessions, 1, 30*time.Second)
	if err != nil {
		return nil, err
	}
	// op runs one rekey-causing call and waits for the group to settle on
	// a new epoch; a divergence or timeout counts as a failed operation.
	op := func(class string, members []*session, call func() error) bool {
		res.ops++
		exp0 := st.exps()
		root := tr.begin("op."+class, 0)
		sp := tr.begin("core."+class, root)
		t0 := time.Now()
		err := call()
		tr.end(sp)
		var at time.Time
		if err == nil {
			epoch, at, err = st.board.await(members, epoch+1, 30*time.Second)
		}
		tr.end(root)
		if err == nil {
			err = confirm(members, epoch)
		}
		if err != nil {
			res.failedOps++
			logf("churn %s: %v", class, err)
			return false
		}
		d := float64(at.Sub(t0))
		switch class {
		case "join":
			res.join = append(res.join, d)
		case "leave":
			res.leave = append(res.leave, d)
		default:
			res.refresh = append(res.refresh, d)
		}
		if tr != nil {
			res.exps[class] = append(res.exps[class], float64(st.exps()-exp0))
		}
		return true
	}

	// Refresh callers rotate through the standing members in seeded
	// order, so every seed has the same mix of controller and forwarded
	// refreshes.
	var callers []int
	end := time.Now().Add(dur)
	for time.Now().Before(end) {
		if !op("join", all, func() error { return st.joiner.conn.Join(group, proto, suite) }) {
			break
		}
		if !op("leave", st.sessions, func() error { return st.joiner.conn.Leave(group) }) {
			break
		}
		if err := st.board.awaitLeft(st.joiner, 30*time.Second); err != nil {
			res.failedOps++
			logf("churn leave: %v", err)
			break
		}
		if len(callers) == 0 {
			callers = rng.Perm(len(st.sessions))
		}
		r := st.sessions[callers[0]]
		callers = callers[1:]
		if !op("refresh", st.sessions, func() error { return r.conn.KeyRefresh(group) }) {
			break
		}
	}
	res.stream = <-streamDone
	return res, nil
}

// exps is the total exponentiations every session has made so far.
func (st *stack) exps() int {
	n := 0
	for _, s := range append(append([]*session(nil), st.sessions...), st.joiner) {
		if s != nil && s.counter != nil {
			n += s.counter.Total()
		}
	}
	return n
}
