package ckd

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/dh"
	"repro/internal/kga"
	"repro/internal/kga/kgatest"
)

// TestChangedPubRevalidated: a long-term key validated once is trusted
// only while it stays the same value. When the directory later returns a
// non-subgroup value for that peer, the next pairwise computation with it
// must fail the subgroup check.
func TestChangedPubRevalidated(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(2)
	net.Grow(ms)
	// ms[1] validated the controller's key answering its hello. It
	// partitions away (keeping its context and memo) and rejoins, so it
	// derives the pairwise key with the controller again.
	net.MustRun(kga.Event{Type: kga.EvLeave, Members: ms[:1], Left: ms[1:]}, ms[:1])
	net.SetPubKey(ms[0], new(big.Int).Sub(testGroup.P, big.NewInt(1)))
	_, err := net.Run(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[1:]}, ms)
	if !errors.Is(err, dh.ErrNotInGroup) {
		t.Fatalf("changed non-subgroup key: got %v, want dh.ErrNotInGroup", err)
	}
}
