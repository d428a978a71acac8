// Package cliques implements the Cliques contributory group key agreement
// suite (group Diffie-Hellman) behind a transport-agnostic API modeled on
// CLQ_API: the caller feeds membership events and protocol messages in, and
// gets protocol messages and completed group keys out.
//
// The group secret for n members is g^(N_1 N_2 ... N_n) mod p where N_i is
// member M_i's private share. The controller role floats: it is always the
// newest (most recently joined) member. Supported operations are JOIN,
// MERGE, LEAVE (single or mass) and REFRESH, per Section 4 of the paper.
//
// Authentication: join messages are authenticated with pairwise long-term
// Diffie-Hellman keys (the "long term key computation" entries of the
// paper's Tables 2-3); leave/refresh broadcasts are authenticated under a
// key derived from the previous group secret. Member certification (binding
// long-term public keys to identities) is explicitly out of scope in the
// paper (Section 1.2); public keys are resolved through a caller-supplied
// kga.Directory.
package cliques

import (
	"crypto/sha256"
	"math/big"
)

// groupMACKey derives the broadcast-authentication key from a group secret.
// Leave and refresh broadcasts are MACed under the previous group secret:
// every surviving member can verify, and forging requires the old secret
// (an outsider cannot; a just-departed insider is excluded by the secure
// layer's membership-ordered delivery, as in the paper's trust model).
func groupMACKey(secret *big.Int) []byte {
	h := sha256.Sum256(append([]byte("cliques broadcast mac v1:"), secret.Bytes()...))
	return h[:]
}
