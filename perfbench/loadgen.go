package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/flush"
)

// sender submits one payload through the layer under test.
type sender func([]byte) error

// phase is what the generator measured over one run of the stream.
type phase struct {
	from, to   int       // ids issued in the phase
	blocks     []block   // the phase cut into consecutive stretches
	late       []float64 // ns each send started after it was due
	backlogMax int64     // issued minus delivered-to-everyone, at its highest
	refused    int
}

// block is one stretch of a phase: its ids and the process CPU spent
// while they were sent.
type block struct {
	from, to int
	cpu      time.Duration
}

// blocksPerPhase is how many stretches a phase is cut into, each at
// least minBlock messages so its p99 has 20 samples beyond it. Metrics are
// the median over stretches, so a stall or a busy neighbour in one
// stretch does not move the run's figure.
const (
	blocksPerPhase = 10
	minBlock       = 2000
)

// blockMedian is the median over the phase's blocks of f(block ids).
func (p phase) blockMedian(f func(b block) float64) float64 {
	var xs []float64
	for _, b := range p.blocks {
		if v := f(b); !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// latency returns the block-median q-quantile of the phase's latencies.
func (p phase) latency(l *ledger, q float64) float64 {
	return p.blockMedian(func(b block) float64 { return percentile(l.latencies(b.from, b.to), q) })
}

// cpuPerMsg is the block-median process CPU per message delivered to the
// whole group, in µs.
func (p phase) cpuPerMsg(l *ledger) float64 {
	return p.blockMedian(func(b block) float64 {
		n := phase{from: b.from, to: b.to}.delivered(l)
		if n == 0 {
			return math.NaN()
		}
		return float64(b.cpu.Microseconds()) / float64(n)
	})
}

// delivered is how many of the phase's messages reached every member.
func (p phase) delivered(l *ledger) int {
	n := 0
	for id := p.from; id < p.to; id++ {
		if l.status[id].Load() == stAccepted && int(l.count[id].Load()) == l.members {
			n++
		}
	}
	return n
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drainTimeout bounds the wait for a phase's last messages; a message
// still missing after it counts as failed.
const drainTimeout = 10 * time.Second

// openLoop sends at a fixed rate from one goroutine, round robin over
// send, for dur. Each message is timed from the moment it was due, so a
// stalled send delays the messages behind it and the stall shows in their
// latency. The phase ends once every accepted message has reached every
// member (or drainTimeout passes); its CPU covers that drain too.
func openLoop(l *ledger, send []sender, rate float64, dur time.Duration, tr *tracer, spanName string) phase {
	interval := float64(time.Second) / rate
	n := int(rate * dur.Seconds())
	p := phase{from: int(l.issued.Load()), late: make([]float64, 0, n)}
	parent := tr.begin("loadgen.open_loop", 0)
	base := l.complete.Load()
	start := l.now()
	per := max(n/blocksPerPhase, minBlock)
	blockCPU := cpuTime()
	for i := 0; i < n; i++ {
		id := int(l.issued.Load())
		if id >= l.capacity() {
			break
		}
		if i%per == 0 {
			if len(p.blocks) > 0 {
				c := cpuTime()
				p.blocks[len(p.blocks)-1].to = id
				p.blocks[len(p.blocks)-1].cpu = c - blockCPU
				blockCPU = c
			}
			p.blocks = append(p.blocks, block{from: id})
		}
		due := start + int64(float64(i)*interval)
		now := l.now()
		if d := due - now; d > 0 {
			time.Sleep(time.Duration(d))
			now = l.now()
		}
		p.late = append(p.late, float64(now-due))
		l.sched[id] = due
		l.issued.Store(int64(id + 1))
		p.send(l, id, send[id%len(send)], tr, spanName, parent)
		if b := int64(id+1-p.from-p.refused) - (l.complete.Load() - base); b > p.backlogMax {
			p.backlogMax = b
		}
	}
	p.to = int(l.issued.Load())
	l.waitComplete(drainTimeout)
	if len(p.blocks) > 0 {
		p.blocks[len(p.blocks)-1].to = p.to
		p.blocks[len(p.blocks)-1].cpu = cpuTime() - blockCPU
	}
	tr.end(parent)
	return p
}

// send sends message id and records the outcome.
func (p *phase) send(l *ledger, id int, send sender, tr *tracer, spanName string, parent int) {
	payload := l.payload(id)
	sp := tr.begin(spanName, parent)
	err := send(payload)
	tr.end(sp)
	switch {
	case err == nil:
		l.settle(id, stAccepted)
	case errors.Is(err, core.ErrNotSecured), errors.Is(err, flush.ErrFlushing):
		l.settle(id, stRefused)
		p.refused++
	default:
		l.settle(id, stFailed)
		logOnce("send error: %v", err)
	}
}

// saturate is the closed-loop counterpart: it keeps at most window
// messages in flight past the slowest member and sends as fast as the
// stack accepts them, for dur. It returns delivered messages per second.
func saturate(l *ledger, send []sender, dur time.Duration, window int64) float64 {
	from := int(l.issued.Load())
	base := l.complete.Load()
	var p phase
	start := time.Now()
	id := from
	for ; time.Since(start) < dur && id < l.capacity(); id++ {
		for int64(id-from-p.refused)-(l.complete.Load()-base) >= window {
			if time.Since(start) > dur+drainTimeout {
				break // a lost message; verify counts it
			}
			time.Sleep(20 * time.Microsecond)
		}
		l.sched[id] = l.now()
		l.issued.Store(int64(id + 1))
		p.send(l, id, send[id%len(send)], nil, "", 0)
	}
	l.waitComplete(drainTimeout)
	return float64(l.complete.Load()-base) / time.Since(start).Seconds()
}

var logged sync.Map

// logOnce logs each distinct message once per run.
func logOnce(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if _, seen := logged.LoadOrStore(msg, true); !seen {
		logf("%s", msg)
	}
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation;
// xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
