package cliques

import (
	"encoding/hex"
	"math/big"
	"testing"
)

// TestCanonGoldenBytes pins the canonical MAC input of one join seed and
// one leave broadcast byte for byte, so a change to the shared canonical
// encoder cannot silently change what goes under the wire MACs.
func TestCanonGoldenBytes(t *testing.T) {
	seed := joinSeedBody{
		OldMembers:  []string{"a", "b"},
		Joiner:      "c",
		Partials:    map[string]*big.Int{"b": big.NewInt(0x0102), "a": big.NewInt(3)},
		PNew:        big.NewInt(0x0405),
		SenderPub:   big.NewInt(6),
		TargetEpoch: 7,
	}
	leave := leaveBcastBody{
		Members:     []string{"a", "c"},
		Left:        []string{"b"},
		Refresh:     true,
		Entries:     map[string]*big.Int{"c": big.NewInt(9), "a": big.NewInt(8)},
		TargetEpoch: 0x0a0b,
	}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"join-seed", joinSeedCanon(&seed), "" +
			"000000096a6f696e2d73656564" + // "join-seed"
			"00000002" + "0000000161" + "0000000162" + // OldMembers
			"0000000163" + // Joiner
			"00000002" + "0000000161" + "0000000103" + "0000000162" + "000000020102" + // Partials, sorted
			"000000020405" + // PNew
			"0000000106" + // SenderPub
			"0000000000000007"}, // TargetEpoch
		{"leave-bcast", leaveCanon(&leave), "" +
			"0000000b6c656176652d6263617374" + // "leave-bcast"
			"00000002" + "0000000161" + "0000000163" + // Members
			"00000001" + "0000000162" + // Left
			"0000000000000001" + // Refresh
			"00000002" + "0000000161" + "0000000108" + "0000000163" + "0000000109" + // Entries, sorted
			"0000000000000a0b"}, // TargetEpoch
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s canonical bytes changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
