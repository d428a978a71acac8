package main

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"repro/internal/crypt"
	"repro/internal/dh"
	"repro/internal/flush"
	"repro/internal/kga"
	"repro/internal/kga/kgatest"
	"repro/internal/spread"
	"repro/internal/transport"
)

// rungWarmup is the unmeasured stream before a rung's measured phase.
const rungWarmup = 200 * time.Millisecond

// rung drives the workload's stream shape and rate through one layer
// alone: "spread" (Client.Multicast AGREED), "flush" (flush.Conn over
// in-process clients) or "remote" (spread.RemoteConnect clients, at most
// two, one per daemon). It returns the p50 latency (ns) and the process
// CPU per delivered message (µs); stream violations count in res.
func (st *stack) rung(kind string, seed uint64, dur time.Duration, res *result) (float64, float64, error) {
	w := st.w
	n, senders := w.members, w.senders
	if kind == "remote" {
		n, senders = 2, min(senders, 2)
	}
	g := "rung-" + kind
	type member struct {
		ep spread.Endpoint
		f  *flush.Conn
	}
	ms := make([]member, n)
	var names []string
	for i := range ms {
		ep, err := st.endpoint(placement(i), fmt.Sprintf("%s%d", kind, i), kind == "remote")
		if err != nil {
			return 0, 0, err
		}
		ms[i].ep = ep
		if kind == "flush" {
			ms[i].f = flush.Wrap(ep)
		}
		names = append(names, ep.Name())
	}
	l := newLedger(seed^uint64(len(kind)), w.size, int(w.rate*(dur+rungWarmup).Seconds())+16, names[:senders], n)

	var ready, drained sync.WaitGroup
	ready.Add(n)
	drained.Add(n)
	for i, m := range ms {
		go func() {
			defer drained.Done()
			once := sync.OnceFunc(ready.Done)
			defer once()
			if m.f != nil {
				for ev := range m.f.Events() {
					switch e := ev.(type) {
					case flush.FlushRequest:
						_ = m.f.FlushOK(e.Group)
					case flush.View:
						if len(e.Info.Members) == n {
							once()
						}
					case flush.Data:
						l.deliver(i, e.Sender, e.Data)
					}
				}
				return
			}
			for ev := range m.ep.Events() {
				switch e := ev.(type) {
				case spread.ViewEvent:
					if len(e.Members) == n {
						once()
					}
				case spread.DataEvent:
					l.deliver(i, e.Sender, e.Data)
				}
			}
		}()
	}
	defer func() {
		for _, m := range ms {
			_ = m.ep.Disconnect()
		}
		drained.Wait()
	}()
	for _, m := range ms {
		if err := m.ep.Join(g); err != nil {
			return 0, 0, err
		}
	}
	joined := make(chan struct{})
	go func() { ready.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(30 * time.Second):
		return 0, 0, fmt.Errorf("%s rung: no %d-member view within 30s", kind, n)
	}

	var send []sender
	for _, m := range ms[:senders] {
		if m.f != nil {
			f := m.f
			send = append(send, func(b []byte) error { return f.Multicast(spread.Agreed, g, b) })
		} else {
			ep := m.ep
			send = append(send, func(b []byte) error { return ep.Multicast(spread.Agreed, g, b) })
		}
	}
	openLoop(l, send, w.rate, rungWarmup, nil, "")
	p := openLoop(l, send, w.rate, dur, nil, "")
	res.account(l, kind+" rung stream")
	return p.latency(l, 0.5), p.cpuPerMsg(l), nil
}

// transportRung times Node.Send of one frame until the peer's handler has
// it, one frame at a time, over the in-memory network or loopback TCP. It
// returns the p50 in µs.
func transportRung(tcp bool, size int) (float64, error) {
	var nw transport.Network = transport.NewMemNetwork()
	if tcp {
		nw = transport.NewTCPNetwork(map[string]string{"ta": "127.0.0.1:0", "tb": "127.0.0.1:0"})
	}
	got := make(chan struct{}, 1)
	a, err := nw.Attach("ta", transport.HandlerFunc(func(string, []byte) {}))
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := nw.Attach("tb", transport.HandlerFunc(func(string, []byte) { got <- struct{}{} }))
	if err != nil {
		return 0, err
	}
	defer b.Close()
	frame := make([]byte, max(size, 1))
	const warm, iters = 50, 2000
	var ts []float64
	for i := 0; i < warm+iters; i++ {
		t0 := time.Now()
		if err := a.Send("tb", frame); err != nil {
			return 0, err
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			return 0, errors.New("transport rung: frame not delivered within 5s")
		}
		if i >= warm {
			ts = append(ts, float64(time.Since(t0)))
		}
	}
	return percentile(ts, 0.5) / 1e3, nil
}

// cryptRung times Seal and Open of one payload under the workload's suite.
// It returns the mean µs of each.
func cryptRung(size int) (float64, float64, error) {
	s, err := crypt.NewSuite(suite, []byte("perfbench group secret"), []byte("perfbench"))
	if err != nil {
		return 0, 0, err
	}
	data := make([]byte, size)
	iters := max(200, 4<<20/max(size, 1)) // about 4 MiB of payload each way
	var frame []byte
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if frame, err = crypt.SealAppend(s, frame[:0], data); err != nil {
			return 0, 0, err
		}
	}
	seal := float64(time.Since(t0)) / float64(iters) / 1e3
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := s.Open(frame); err != nil {
			return 0, 0, err
		}
	}
	return seal, float64(time.Since(t0)) / float64(iters) / 1e3, nil
}

// kgaTB lets kgatest run outside go test: Fatalf unwinds to kgaRung.
type kgaTB struct{}

type kgaAbort struct{ err error }

func (kgaTB) Helper() {}
func (kgaTB) Fatalf(format string, args ...any) {
	panic(kgaAbort{fmt.Errorf(format, args...)})
}

// kgaRung times Cliques join, refresh and leave at n=8 on 2048-bit DH,
// compute only: the protocol engines exchange messages through kgatest's
// in-memory FIFO, with no daemons, flush or secure layer.
func kgaRung(res *result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(kgaAbort)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("kga rung: %w", a.err)
		}
	}()
	const n, reps = 8, 3
	net := kgatest.NewNet(kgaTB{}, proto, dh.Group2048)
	ms := make([]string, n-1)
	for i := range ms {
		ms[i] = fmt.Sprintf("k%d", i)
	}
	net.Grow(ms)
	var join, refresh, leave []float64
	for r := 0; r < reps; r++ {
		j := fmt.Sprintf("j%d", r)
		net.Add(j)
		all := append(append([]string(nil), ms...), j)
		t0 := time.Now()
		net.MustRun(kga.Event{Type: kga.EvJoin, Members: all, Joined: []string{j}}, all)
		join = append(join, float64(time.Since(t0)))
		t0 = time.Now()
		net.MustRun(kga.Event{Type: kga.EvRefresh, Members: all}, all)
		refresh = append(refresh, float64(time.Since(t0)))
		t0 = time.Now()
		net.MustRun(kga.Event{Type: kga.EvLeave, Members: ms, Left: []string{j}}, ms)
		leave = append(leave, float64(time.Since(t0)))
	}
	res.set("kga.join_ms", median(join)/1e6, "ms")
	res.set("kga.leave_ms", median(leave)/1e6, "ms")
	res.set("kga.refresh_ms", median(refresh)/1e6, "ms")
	return nil
}

// dhRung times one modular exponentiation with a full-size exponent, and
// one fixed-base exponentiation of the generator, at 2048 bits.
func dhRung(res *result) {
	g := dh.Group2048
	base := g.PowG(big.NewInt(12345), nil, "")
	exp := new(big.Int).Sub(g.Q, big.NewInt(98765))
	const iters = 20
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		g.Exp(base, exp, nil, "")
	}
	res.set("dh.exp_us", float64(time.Since(t0))/iters/1e3, "us")
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		g.PowG(exp, nil, "")
	}
	res.set("dh.powg_us", float64(time.Since(t0))/iters/1e3, "us")
}
