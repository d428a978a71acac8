// Package kgatest provides an in-memory harness for driving kga.Protocol
// implementations through membership events without a real group
// communication system: FIFO message delivery, a shared public-key
// directory, and helpers for asserting key agreement outcomes.
package kgatest

import (
	"fmt"
	"math/big"
	"sync"

	"repro/internal/dh"
	"repro/internal/kga"
)

// TB is the minimal testing surface the harness needs. *testing.T and
// *testing.B satisfy it; the benchmark harness provides a non-test
// implementation so experiments can run from a plain binary.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Net is a simulated network of protocol members with FIFO delivery.
type Net struct {
	tb       TB
	proto    string
	group    *dh.Group
	mu       sync.Mutex
	members  map[string]kga.Protocol
	pubs     map[string]*big.Int
	Counters map[string]*dh.Counter

	// Queue holds undelivered protocol messages in FIFO order. Tests may
	// inspect or drop entries to simulate failures.
	Queue []kga.Message

	// Drop, when set, filters messages before delivery: returning true
	// discards the message.
	Drop func(kga.Message) bool
}

// NewNet creates a harness for the named protocol over the given DH group.
func NewNet(tb TB, proto string, group *dh.Group) *Net {
	return &Net{
		tb:       tb,
		proto:    proto,
		group:    group,
		members:  make(map[string]kga.Protocol),
		pubs:     make(map[string]*big.Int),
		Counters: make(map[string]*dh.Counter),
	}
}

// Directory returns the shared public-key directory.
func (n *Net) Directory() kga.Directory {
	return kga.DirectoryFunc(func(name string) (*big.Int, error) {
		n.mu.Lock()
		defer n.mu.Unlock()
		pub, ok := n.pubs[name]
		if !ok {
			return nil, fmt.Errorf("kgatest: no public key for %s", name)
		}
		return pub, nil
	})
}

// Add creates a member and registers its public key.
func (n *Net) Add(name string) kga.Protocol {
	n.tb.Helper()
	c := dh.NewCounter()
	p, err := kga.New(n.proto, name, n.group, n.Directory(), c)
	if err != nil {
		n.tb.Fatalf("kgatest: new member %s: %v", name, err)
	}
	n.mu.Lock()
	n.members[name] = p
	n.pubs[name] = p.PubKey()
	n.Counters[name] = c
	n.mu.Unlock()
	return p
}

// SetPubKey replaces a member's directory entry, for tests of how engines
// react to a peer's long-term key changing.
func (n *Net) SetPubKey(name string, pub *big.Int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pubs[name] = pub
}

// Member returns a previously added member.
func (n *Net) Member(name string) kga.Protocol {
	n.tb.Helper()
	p, ok := n.members[name]
	if !ok {
		n.tb.Fatalf("kgatest: unknown member %s", name)
	}
	return p
}

// ResetCounters zeroes all exponentiation counters.
func (n *Net) ResetCounters() {
	for _, c := range n.Counters {
		c.Reset()
	}
}

// Run feeds the event to every listed participant, then pumps the message
// queue to completion. It returns the group keys reported by each member
// during the run.
func (n *Net) Run(ev kga.Event, participants []string) (map[string]*kga.GroupKey, error) {
	keys := make(map[string]*kga.GroupKey)
	for _, name := range participants {
		res, err := n.Member(name).HandleEvent(ev)
		if err != nil {
			return keys, fmt.Errorf("%s: handle event: %w", name, err)
		}
		n.collect(res, name, keys, participants)
	}
	if err := n.Pump(keys, participants); err != nil {
		return keys, err
	}
	return keys, nil
}

// MustRun is Run that fails the test on error and asserts every
// participant obtained the same key.
func (n *Net) MustRun(ev kga.Event, participants []string) map[string]*kga.GroupKey {
	n.tb.Helper()
	keys, err := n.Run(ev, participants)
	if err != nil {
		n.tb.Fatalf("kgatest: run %v: %v", ev.Type, err)
	}
	n.AssertAgreement(keys, participants)
	return keys
}

// Pump delivers queued messages until the queue drains, recording keys.
func (n *Net) Pump(keys map[string]*kga.GroupKey, participants []string) error {
	for len(n.Queue) > 0 {
		msg := n.Queue[0]
		n.Queue = n.Queue[1:]
		if n.Drop != nil && n.Drop(msg) {
			continue
		}
		var dests []string
		if msg.To != "" {
			dests = []string{msg.To}
		} else {
			// Broadcast: every participant except the sender (the
			// secure layer filters self-originated protocol
			// messages).
			for _, name := range participants {
				if name != msg.From {
					dests = append(dests, name)
				}
			}
		}
		for _, d := range dests {
			res, err := n.Member(d).HandleMessage(msg)
			if err != nil {
				return fmt.Errorf("%s: handle %d from %s: %w", d, msg.Type, msg.From, err)
			}
			n.collect(res, d, keys, participants)
		}
	}
	return nil
}

func (n *Net) collect(res kga.Result, name string, keys map[string]*kga.GroupKey, participants []string) {
	n.Queue = append(n.Queue, res.Msgs...)
	if res.Key != nil {
		keys[name] = res.Key
	}
}

// AssertAgreement fails the test unless every participant reported the
// same, non-nil key.
func (n *Net) AssertAgreement(keys map[string]*kga.GroupKey, participants []string) {
	n.tb.Helper()
	var ref *kga.GroupKey
	for _, name := range participants {
		k, ok := keys[name]
		if !ok || k == nil {
			n.tb.Fatalf("kgatest: member %s reported no key", name)
		}
		if ref == nil {
			ref = k
			continue
		}
		if k.Secret.Cmp(ref.Secret) != 0 {
			n.tb.Fatalf("kgatest: member %s disagrees on the group secret", name)
		}
	}
}

// Grow founds the group at members[0] and joins the rest one at a time,
// returning the final keys. Event member order mirrors join order.
func (n *Net) Grow(members []string) map[string]*kga.GroupKey {
	n.tb.Helper()
	for _, name := range members {
		n.Add(name)
	}
	keys := n.MustRun(kga.Event{Type: kga.EvFound, Members: members[:1]}, members[:1])
	for i := 1; i < len(members); i++ {
		keys = n.MustRun(kga.Event{
			Type:    kga.EvJoin,
			Members: members[:i+1],
			Joined:  members[i : i+1],
		}, members[:i+1])
	}
	return keys
}
