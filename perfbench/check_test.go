package main

import (
	"testing"
)

// stream issues n messages from two senders into a three-member ledger
// and returns it with the payloads, without delivering anything.
func stream(t *testing.T, n int) (*ledger, [][]byte) {
	t.Helper()
	l := newLedger(7, 64, n, []string{"a", "b"}, 3)
	var ps [][]byte
	for id := 0; id < n; id++ {
		l.sched[id] = l.now()
		l.issued.Store(int64(id + 1))
		l.settle(id, stAccepted)
		ps = append(ps, l.payload(id))
	}
	return l, ps
}

func senderOf(id int) string { return []string{"a", "b"}[id%2] }

// deliverAll hands every member every payload in id order, except where
// edit rewrites a member's sequence first.
func deliverAll(l *ledger, ps [][]byte, edit func(member int, order []int) []int) {
	for m := 0; m < l.members; m++ {
		order := make([]int, len(ps))
		for i := range order {
			order[i] = i
		}
		if edit != nil {
			order = edit(m, order)
		}
		for _, id := range order {
			l.deliver(m, senderOf(id), ps[id])
		}
	}
}

func TestCheckerPassesCleanStream(t *testing.T) {
	l, ps := stream(t, 100)
	deliverAll(l, ps, nil)
	if o := l.verify(); o.failed() != 0 || o.accepted != 100 {
		t.Fatalf("clean stream: %v", o)
	}
	if !l.waitComplete(0) {
		t.Fatal("clean stream not complete")
	}
	if got := len(l.latencies(0, 100)); got != 100 {
		t.Fatalf("latency samples = %d, want 100", got)
	}
}

func TestCheckerCatchesInjectedFaults(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(member int, order []int) []int
		check func(o outcome) int
	}{
		{"drop", func(m int, order []int) []int {
			if m == 1 {
				return append(order[:40:40], order[41:]...)
			}
			return order
		}, func(o outcome) int { return o.missing }},
		{"reorder across senders", func(m int, order []int) []int {
			if m == 2 {
				order[10], order[11] = order[11], order[10]
			}
			return order
		}, func(o outcome) int { return o.order }},
		{"reorder within a sender", func(m int, order []int) []int {
			if m == 0 {
				order[10], order[12] = order[12], order[10]
			}
			return order
		}, func(o outcome) int { return o.fifo }},
		{"duplicate", func(m int, order []int) []int {
			if m == 1 {
				return append(order, 57)
			}
			return order
		}, func(o outcome) int { return o.dup }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l, ps := stream(t, 100)
			deliverAll(l, ps, c.edit)
			o := l.verify()
			if c.check(o) == 0 || o.failed() == 0 {
				t.Fatalf("fault not caught: %v", o)
			}
		})
	}
}

func TestCheckerCatchesCorruptedPayload(t *testing.T) {
	for _, c := range []struct {
		name   string
		mangle func(p []byte) []byte
		from   string
	}{
		{"flipped body byte", func(p []byte) []byte { p[20] ^= 1; return p }, "a"},
		{"truncated", func(p []byte) []byte { return p[:len(p)-1] }, "a"},
		{"header names another id", func(p []byte) []byte { p[0] = 3; return p }, "b"},
		{"wrong sender", func(p []byte) []byte { return p }, "b"},
	} {
		t.Run(c.name, func(t *testing.T) {
			l, ps := stream(t, 10)
			bad := append([]byte(nil), ps[4]...)
			ps[4] = c.mangle(bad)
			for m := 0; m < l.members; m++ {
				for id, p := range ps {
					from := senderOf(id)
					if id == 4 {
						from = c.from
					}
					l.deliver(m, from, p)
				}
			}
			o := l.verify()
			if o.corrupt == 0 && o.dup == 0 || o.failed() == 0 {
				t.Fatalf("corruption not caught: %v", o)
			}
		})
	}
}

func TestCheckerRefusalsAndObservers(t *testing.T) {
	l, ps := stream(t, 20)
	l.settle(5, stRefused)
	l.accepted.Add(-1)
	joiner := l.addReceiver()
	deliverAll(l, ps, func(_ int, order []int) []int {
		return append(order[:5:5], order[6:]...)
	})
	// The joiner saw part of the stream, in order.
	for _, id := range []int{12, 15, 19} {
		l.deliver(joiner, senderOf(id), ps[id])
	}
	if o := l.verify(); o.failed() != 0 || o.refused != 1 {
		t.Fatalf("refusal or observer miscounted: %v", o)
	}
	// An observer that goes back in the total order fails.
	l.deliver(joiner, senderOf(13), ps[13])
	if o := l.verify(); o.order == 0 {
		t.Fatalf("observer reorder not caught: %v", o)
	}
	// A refused message that is delivered anyway fails.
	l.deliver(0, senderOf(5), ps[5])
	if o := l.verify(); o.unexpected == 0 {
		t.Fatalf("delivered refusal not caught: %v", o)
	}
}
