package core

import (
	"errors"
	"math/big"
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/dh"
)

// TestReannounceChangedPubRevalidated: an unchanged long-term key is taken
// without a fresh subgroup check, but a re-announce whose key changed to a
// non-subgroup value must still be rejected with a warning, leaving the
// directory on the last validated key.
func TestReannounceChangedPubRevalidated(t *testing.T) {
	cluster := newCluster(t, 1)
	a := connectSecure(t, cluster.Daemons[0], "a")
	b := connectSecure(t, cluster.Daemons[0], "b")
	for _, c := range []*Conn{a, b} {
		if err := c.Join("g", "cliques", crypt.SuiteBlowfish); err != nil {
			t.Fatal(err)
		}
	}
	waitSecure(t, a, "g", 2)
	waitSecure(t, b, "g", 2)

	// Drive a's announcement handler directly on its event loop with a
	// synthetic announcing phase, restoring the secured state afterwards.
	bad := new(big.Int).Sub(a.dhGroup.P, big.NewInt(1)) // order 2: not in the subgroup
	var valid *big.Int
	var sameTaken, badTaken bool
	if err := a.do(func() {
		g := a.groups["g"]
		phase, anns := g.phase, g.anns
		defer func() { g.phase, g.anns = phase, anns }()
		g.phase = phaseAnnouncing

		peer := b.Name()
		valid = g.pubkeys[peer]
		g.anns = map[string]*announceBody{}
		g.onAnnounce(peer, &announceBody{Name: peer, Pub: new(big.Int).Set(valid), Proto: "cliques"})
		sameTaken = g.anns[peer] != nil

		g.anns = map[string]*announceBody{}
		g.onAnnounce(peer, &announceBody{Name: peer, Pub: bad, Proto: "cliques"})
		badTaken = g.anns[peer] != nil || g.pubkeys[peer].Cmp(valid) != 0
	}); err != nil {
		t.Fatal(err)
	}
	if !sameTaken {
		t.Fatal("unchanged long-term key was not accepted")
	}
	if badTaken {
		t.Fatal("re-announce with a non-subgroup key was accepted")
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev := <-a.Events():
			if w, ok := ev.(Warning); ok && errors.Is(w.Err, dh.ErrNotInGroup) {
				return
			}
		case <-deadline:
			t.Fatal("no warning for the rejected re-announce")
		}
	}
}
