package cliques

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
	ms := names(3)
	net.Grow(ms)
	// ms[1] validated ms[2]'s key as controller of ms[2]'s join; ms[2]
	// broadcast the current partials, so ms[1]'s leave audit re-derives
	// the pairwise key with it.
	net.SetPubKey(ms[2], new(big.Int).Sub(testGroup.P, big.NewInt(1)))
	_, err := net.Run(kga.Event{Type: kga.EvLeave, Members: ms[:2], Left: ms[2:]}, ms[:2])
	if !errors.Is(err, dh.ErrNotInGroup) {
		t.Fatalf("changed non-subgroup key: got %v, want dh.ErrNotInGroup", err)
	}
}

// TestFusedStepFailureInstallsNothing: in every fused step the seed MAC,
// entry MAC or state audit is checked before anything is committed or
// sent, so a failure leaves no message and no new key behind.
func TestFusedStepFailureInstallsNothing(t *testing.T) {
	noEffect := func(t *testing.T, m *Member, before *kga.GroupKey, res kga.Result, err, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
		if len(res.Msgs) != 0 || res.Key != nil {
			t.Fatalf("failed step returned %d messages, key %v", len(res.Msgs), res.Key)
		}
		if m.Key() != before {
			t.Fatal("failed step installed a key")
		}
	}
	// capture runs ev and returns the first message of type typ instead
	// of delivering it.
	capture := func(net *kgatest.Net, ev kga.Event, parts []string, typ int) kga.Message {
		t.Helper()
		var got *kga.Message
		net.Drop = func(m kga.Message) bool {
			if m.Type == typ && got == nil {
				got = &m
				return true
			}
			return false
		}
		if _, err := net.Run(ev, parts); err != nil {
			t.Fatal(err)
		}
		net.Drop = nil
		if got == nil {
			t.Fatalf("no message of type %d", typ)
		}
		return *got
	}
	flip := func(b []byte) []byte {
		b = append([]byte(nil), b...)
		b[0] ^= 1
		return b
	}

	t.Run("seed-mac", func(t *testing.T) {
		net := kgatest.NewNet(t, ProtoName, testGroup)
		ms := names(4)
		net.Grow(ms[:3])
		net.Add(ms[3])
		ev := kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[3:]}
		msg := capture(net, ev, ms, MsgJoinSeed)
		var b joinSeedBody
		if err := decodeBody(msg.Body, &b); err != nil {
			t.Fatal(err)
		}
		b.MAC = flip(b.MAC)
		enc, err := encodeBody(&b)
		if err != nil {
			t.Fatal(err)
		}
		msg.Body = enc
		joiner := net.Member(ms[3]).(*Member)
		res, err := joiner.HandleMessage(msg)
		noEffect(t, joiner, nil, res, err, ErrBadMAC)
	})

	t.Run("join-entry-mac", func(t *testing.T) {
		net := kgatest.NewNet(t, ProtoName, testGroup)
		ms := names(4)
		net.Grow(ms[:3])
		net.Add(ms[3])
		ev := kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[3:]}
		msg := capture(net, ev, ms, MsgJoinBcast)
		var b joinBcastBody
		if err := decodeBody(msg.Body, &b); err != nil {
			t.Fatal(err)
		}
		b.EntryMACs[ms[0]] = flip(b.EntryMACs[ms[0]])
		enc, err := encodeBody(&b)
		if err != nil {
			t.Fatal(err)
		}
		msg.Body = enc
		m := net.Member(ms[0]).(*Member)
		before := m.Key()
		res, err := m.HandleMessage(msg)
		noEffect(t, m, before, res, err, ErrBadMAC)
	})

	t.Run("audit-entry-mac", func(t *testing.T) {
		net := kgatest.NewNet(t, ProtoName, testGroup)
		ms := names(3)
		net.Grow(ms)
		m := net.Member(ms[1]).(*Member)
		m.ownEntryMAC = flip(m.ownEntryMAC)
		before := m.Key()
		res, err := m.HandleEvent(kga.Event{Type: kga.EvLeave, Members: ms[:2], Left: ms[2:]})
		noEffect(t, m, before, res, err, ErrStateAudit)
	})

	t.Run("audit-own-key", func(t *testing.T) {
		net := kgatest.NewNet(t, ProtoName, testGroup)
		ms := names(3)
		net.Grow(ms)
		// ms[2] broadcast the current partials itself, so its refresh
		// audit revalidates its own key pair.
		m := net.Member(ms[2]).(*Member)
		m.pub = new(big.Int).Add(m.pub, big.NewInt(1))
		before := m.Key()
		res, err := m.HandleEvent(kga.Event{Type: kga.EvRefresh, Members: ms})
		noEffect(t, m, before, res, err, ErrStateAudit)
	})
}
