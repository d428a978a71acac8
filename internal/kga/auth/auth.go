// Package auth holds the message-authentication helpers shared by the key
// agreement modules: canonical byte encoding for MAC inputs, HMAC-SHA256
// tagging, and pairwise long-term Diffie-Hellman key derivation over a
// memo of validated peer keys.
package auth

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"slices"
	"sort"

	"repro/internal/dh"
	"repro/internal/kga"
)

// Peers resolves peers' long-term public keys through a directory and
// validates each value once: CheckElement runs when a peer's key is first
// seen or has changed, and a key equal to the peer's last validated one is
// trusted as is. The memo is compared by value and pruned to the committed
// membership, so it stays bounded and a changed key is always checked.
// Peers is not safe for concurrent use; it lives inside one engine.
type Peers struct {
	g     *dh.Group
	dir   kga.Directory
	valid map[string]*big.Int
}

// NewPeers returns an empty memo over dir.
func NewPeers(g *dh.Group, dir kga.Directory) *Peers {
	return &Peers{g: g, dir: dir, valid: make(map[string]*big.Int)}
}

// pub returns peer's long-term public key, validated as a subgroup element.
func (p *Peers) pub(peer string) (*big.Int, error) {
	pub, err := p.dir.PubKey(peer)
	if err != nil {
		return nil, fmt.Errorf("pubkey of %s: %w", peer, err)
	}
	if v, ok := p.valid[peer]; ok && pub != nil && v.Cmp(pub) == 0 {
		return pub, nil
	}
	if err := p.g.CheckElement(pub); err != nil {
		return nil, fmt.Errorf("pubkey of %s: %w", peer, err)
	}
	p.valid[peer] = new(big.Int).Set(pub)
	return pub, nil
}

// PairwiseJob is the batch job deriving the long-term pairwise key between
// the caller (private exponent x) and peer, counted under label.
func (p *Peers) PairwiseJob(peer string, x *big.Int, label string) (dh.ExpJob, error) {
	pub, err := p.pub(peer)
	if err != nil {
		return dh.ExpJob{}, err
	}
	return dh.ExpJob{Base: pub, Exp: x, Label: label}, nil
}

// PairwiseKey computes one long-term pairwise key on its own, counting one
// exponentiation under label.
func (p *Peers) PairwiseKey(peer string, x *big.Int, c *dh.Counter, label string) (*big.Int, error) {
	pub, err := p.pub(peer)
	if err != nil {
		return nil, err
	}
	return p.g.Exp(pub, x, c, label), nil
}

// Prune forgets every peer outside members.
func (p *Peers) Prune(members []string) {
	for peer := range p.valid {
		if !slices.Contains(members, peer) {
			delete(p.valid, peer)
		}
	}
}

// MACTag computes HMAC-SHA256 over parts under key.
func MACTag(key []byte, parts ...[]byte) []byte {
	m := hmac.New(sha256.New, key)
	for _, p := range parts {
		m.Write(p)
	}
	return m.Sum(nil)
}

// MACOK verifies tag over parts under key in constant time.
func MACOK(key []byte, tag []byte, parts ...[]byte) bool {
	return hmac.Equal(tag, MACTag(key, parts...))
}

// Canon builds a deterministic byte string from heterogeneous fields for
// MAC computation. Gob map encoding is nondeterministic, so MACs must never
// be computed over raw message encodings.
func Canon(parts ...any) []byte {
	var buf bytes.Buffer
	writeBytes := func(b []byte) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(b)))
		buf.Write(n[:])
		buf.Write(b)
	}
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			writeBytes([]byte(v))
		case []byte:
			writeBytes(v)
		case uint64:
			var n [8]byte
			binary.BigEndian.PutUint64(n[:], v)
			buf.Write(n[:])
		case int:
			var n [8]byte
			binary.BigEndian.PutUint64(n[:], uint64(v))
			buf.Write(n[:])
		case *big.Int:
			if v == nil {
				writeBytes(nil)
			} else {
				writeBytes(v.Bytes())
			}
		case []string:
			var n [4]byte
			binary.BigEndian.PutUint32(n[:], uint32(len(v)))
			buf.Write(n[:])
			for _, s := range v {
				writeBytes([]byte(s))
			}
		case map[string]*big.Int:
			keys := make([]string, 0, len(v))
			for k := range v {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var n [4]byte
			binary.BigEndian.PutUint32(n[:], uint32(len(keys)))
			buf.Write(n[:])
			for _, k := range keys {
				writeBytes([]byte(k))
				writeBytes(v[k].Bytes())
			}
		default:
			panic(fmt.Sprintf("auth: canon: unsupported type %T", p))
		}
	}
	return buf.Bytes()
}
