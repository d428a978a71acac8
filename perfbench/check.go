package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// headerLen is the per-message header: the message id, little-endian. The
// rest of each payload is a seeded template, so a receiver can verify every
// byte it is handed.
const headerLen = 8

// templates is how many distinct seeded payload bodies a stream cycles
// through; enough that a mixed-up delivery shows as corrupted bytes.
const templates = 61

// ledger is the correctness and latency record of one message stream: the
// payload each id carries, when it was due, who sent it, and who received
// it. Receivers call deliver from their own goroutines; the generator
// issues ids from one goroutine.
type ledger struct {
	t0      time.Time
	size    int
	senders []string // expected sender name of id i is senders[i%len(senders)]
	members int      // receivers that must get every accepted message
	tmpl    [][]byte

	sched    []int64 // ns after t0 the message was due
	status   []atomic.Uint32
	count    []atomic.Int32
	done     []atomic.Int64 // ns after t0 the last required member got it
	issued   atomic.Int64
	accepted atomic.Int64
	complete atomic.Int64 // accepted ids delivered to every member

	recv []*receiver
}

// Message status, set by the generator once Multicast returns.
const (
	stPending uint32 = iota
	stAccepted
	stRefused // core.ErrNotSecured during a rekey: not a failure
	stFailed
)

// receiver is one member's view of the stream. Only its own drain
// goroutine delivers to it; the mutex orders those writes with verify.
type receiver struct {
	mu      sync.Mutex
	seen    []uint64 // bitset over ids
	order   []uint32 // ids in delivery order
	last    []int64  // last id seen per sender, for FIFO
	dup     int
	corrupt int
	fifo    int
}

func newLedger(seed uint64, size, capacity int, senders []string, members int) *ledger {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	l := &ledger{
		t0:      time.Now(),
		size:    size,
		senders: senders,
		members: members,
		tmpl:    make([][]byte, templates),
		sched:   make([]int64, capacity),
		status:  make([]atomic.Uint32, capacity),
		count:   make([]atomic.Int32, capacity),
		done:    make([]atomic.Int64, capacity),
	}
	for i := range l.tmpl {
		b := make([]byte, size)
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		l.tmpl[i] = b
	}
	for i := 0; i < members; i++ {
		l.addReceiver()
	}
	return l
}

// addReceiver adds a member that is checked for duplicates, corruption and
// FIFO order but is not required to receive every message (a joiner that
// is in the group for part of the stream). It returns the receiver index.
func (l *ledger) addReceiver() int {
	r := &receiver{
		seen: make([]uint64, (len(l.sched)+63)/64),
		last: make([]int64, len(l.senders)),
	}
	for i := range r.last {
		r.last[i] = -1
	}
	l.recv = append(l.recv, r)
	return len(l.recv) - 1
}

func (l *ledger) now() int64 { return int64(time.Since(l.t0)) }

// settle records what Multicast made of message id.
func (l *ledger) settle(id int, st uint32) {
	l.status[id].Store(st)
	if st == stAccepted {
		l.accepted.Add(1)
	}
}

func (l *ledger) capacity() int { return len(l.sched) }

// payload builds message id's bytes: the header, then its template body.
func (l *ledger) payload(id int) []byte {
	b := make([]byte, l.size)
	copy(b, l.tmpl[id%templates])
	binary.LittleEndian.PutUint64(b, uint64(id))
	return b
}

// deliver records that member got data from sender. It reports false when
// the delivery violates the stream's guarantees.
func (l *ledger) deliver(member int, sender string, data []byte) bool {
	if len(data) != l.size || len(data) < headerLen {
		l.recv[member].mark(func(r *receiver) { r.corrupt++ })
		return false
	}
	id64 := binary.LittleEndian.Uint64(data)
	if id64 >= uint64(l.issued.Load()) || id64 >= uint64(len(l.sched)) {
		l.recv[member].mark(func(r *receiver) { r.corrupt++ })
		return false
	}
	id := int(id64)
	s := id % len(l.senders)
	if sender != l.senders[s] || !bytes.Equal(data[headerLen:], l.tmpl[id%templates][headerLen:]) {
		l.recv[member].mark(func(r *receiver) { r.corrupt++ })
		return false
	}
	r := l.recv[member]
	r.mu.Lock()
	w, bit := id/64, uint64(1)<<(id%64)
	if r.seen[w]&bit != 0 {
		r.dup++
		r.mu.Unlock()
		return false
	}
	r.seen[w] |= bit
	ok := true
	if int64(id) <= r.last[s] {
		r.fifo++
		ok = false
	}
	r.last[s] = int64(id)
	r.order = append(r.order, uint32(id))
	r.mu.Unlock()
	if member < l.members && int(l.count[id].Add(1)) == l.members {
		l.done[id].Store(l.now())
		l.complete.Add(1)
	}
	return ok
}

func (r *receiver) mark(f func(*receiver)) {
	r.mu.Lock()
	f(r)
	r.mu.Unlock()
}

// outcome is the verdict over a range of ids.
type outcome struct {
	accepted, refused, sendErrs int
	missing, unexpected         int
	dup, corrupt, fifo, order   int
}

func (o outcome) failed() int {
	return o.sendErrs + o.missing + o.unexpected + o.dup + o.corrupt + o.fifo + o.order
}

func (o outcome) String() string {
	return fmt.Sprintf("accepted=%d refused=%d send_errors=%d missing=%d unexpected=%d dup=%d corrupt=%d fifo=%d order=%d",
		o.accepted, o.refused, o.sendErrs, o.missing, o.unexpected, o.dup, o.corrupt, o.fifo, o.order)
}

// verify checks every issued id: each accepted message reached each
// required member exactly once, intact; nothing refused was delivered;
// every member saw the same total (AGREED) order, and observers saw a
// subsequence of it.
func (l *ledger) verify() outcome {
	var o outcome
	n := int(l.issued.Load())
	for id := 0; id < n; id++ {
		c := int(l.count[id].Load())
		switch l.status[id].Load() {
		case stAccepted:
			o.accepted++
			if c != l.members {
				o.missing++
				if o.missing <= 3 {
					var got []int
					for m, r := range l.recv {
						r.mu.Lock()
						if r.seen[id/64]&(1<<(id%64)) != 0 {
							got = append(got, m)
						}
						r.mu.Unlock()
					}
					logf("missing id %d (of %d) due %.1fms: received by %v", id, n, float64(l.sched[id])/1e6, got)
				}
			}
		case stRefused:
			o.refused++
			if c != 0 {
				o.unexpected++
			}
		case stFailed:
			o.sendErrs++
		default:
			o.missing++
		}
	}
	for _, r := range l.recv {
		r.mu.Lock()
		o.dup += r.dup
		o.corrupt += r.corrupt
		o.fifo += r.fifo
		r.mu.Unlock()
	}
	// The reference order is the first member's, restricted to ids every
	// required member got (a missing id is already counted above).
	full := func(id uint32) bool { return int(l.count[id].Load()) == l.members }
	var ref []uint32
	var pos []int32 // id -> index in ref, for observers
	if len(l.recv) > l.members {
		pos = make([]int32, n)
		for i := range pos {
			pos[i] = -1
		}
	}
	if len(l.recv) > 0 {
		r := l.recv[0]
		r.mu.Lock()
		for _, id := range r.order {
			if full(id) {
				if pos != nil {
					pos[id] = int32(len(ref))
				}
				ref = append(ref, id)
			}
		}
		r.mu.Unlock()
	}
	for m, r := range l.recv {
		if m == 0 {
			continue
		}
		r.mu.Lock()
		at := -1
		k := 0
		for _, id := range r.order {
			if !full(id) {
				continue
			}
			if m < l.members {
				if k >= len(ref) || ref[k] != id {
					o.order++
				}
				k++
				continue
			}
			if p := int(pos[id]); p < 0 || p <= at {
				o.order++
			} else {
				at = p
			}
		}
		r.mu.Unlock()
	}
	return o
}

// latencies returns, for accepted ids in [from, to) delivered to every
// required member, the time from due to delivery at the last member.
func (l *ledger) latencies(from, to int) []float64 {
	out := make([]float64, 0, to-from)
	for id := from; id < to; id++ {
		if l.status[id].Load() != stAccepted || int(l.count[id].Load()) != l.members {
			continue
		}
		out = append(out, float64(l.done[id].Load()-l.sched[id]))
	}
	return out
}

// waitComplete blocks until every accepted id has reached every required
// member, or the timeout passes.
func (l *ledger) waitComplete(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if l.complete.Load() >= l.accepted.Load() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}
