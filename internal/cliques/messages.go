package cliques

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/big"

	"repro/internal/wirecodec"
)

// ProtoName is the registered protocol name of the Cliques module.
const ProtoName = "cliques"

// Protocol message types (kga.Message.Type values).
const (
	// MsgJoinSeed carries the partial-secret set from the current
	// controller to a joining member (JOIN step 1).
	MsgJoinSeed = iota + 1
	// MsgJoinBcast is the joining member's broadcast of updated partial
	// secrets (JOIN step 2).
	MsgJoinBcast
	// MsgLeaveBcast is the controller's broadcast of refreshed partial
	// secrets after a LEAVE or REFRESH.
	MsgLeaveBcast
	// MsgMergeChain carries the accumulating partial secret down the
	// chain of merging members (MERGE steps 1-2).
	MsgMergeChain
	// MsgMergeFactorReq is the last merging member's broadcast asking
	// every other member to factor out its share (MERGE step 3).
	MsgMergeFactorReq
	// MsgMergeFactorResp returns a factored-out partial to the last
	// merging member (MERGE step 4).
	MsgMergeFactorResp
	// MsgMergeBcast is the new controller's final broadcast of the full
	// partial-secret set (MERGE step 5).
	MsgMergeBcast
)

type joinSeedBody struct {
	OldMembers  []string
	Joiner      string
	Partials    map[string]*big.Int
	PNew        *big.Int
	SenderPub   *big.Int
	TargetEpoch uint64
	MAC         []byte
}

type joinBcastBody struct {
	Members     []string // new member list, joiner last
	Entries     map[string]*big.Int
	EntryMACs   map[string][]byte
	SenderPub   *big.Int
	TargetEpoch uint64
}

type leaveBcastBody struct {
	Members     []string // survivors, in order
	Left        []string
	Refresh     bool
	Entries     map[string]*big.Int
	EntryMACs   map[string][]byte // own-entry inheritance MACs, keyed pairwise
	TargetEpoch uint64
	MAC         []byte // keyed under the previous group secret
}

type mergeChainBody struct {
	Members     []string // full new member list
	Merged      []string // chain order; last becomes controller
	Pos         int      // recipient's index in Merged
	U           *big.Int
	SenderPub   *big.Int
	TargetEpoch uint64
	MAC         []byte // pairwise sender->recipient
}

type mergeFactorReqBody struct {
	Members     []string
	Merged      []string
	U           *big.Int
	SenderPub   *big.Int
	TargetEpoch uint64
	MACs        map[string][]byte // pairwise sender->each member
}

type mergeFactorRespBody struct {
	W           *big.Int
	SenderPub   *big.Int
	TargetEpoch uint64
	MAC         []byte // pairwise sender->last merging member
}

type mergeBcastBody struct {
	Members     []string
	Entries     map[string]*big.Int
	EntryMACs   map[string][]byte
	SenderPub   *big.Int
	TargetEpoch uint64
}

// encodeBody writes a protocol body with the binary wire codec; decodeBody
// keeps a gob fallback for frames from older builds. The body type is
// implied by kga.Message.Type, so no tag travels. MACs are computed over
// auth.Canon, never over encodings, so the codec swap cannot break
// authentication.
func encodeBody(v any) ([]byte, error) {
	return encodeBodyExt(v, nil)
}

// encodeBodyExt is encodeBody with a causal-tracing extension in the
// versioned preamble (nil ext yields a byte-identical V1 frame).
func encodeBodyExt(v any, ext *wirecodec.Ext) ([]byte, error) {
	b := wirecodec.AppendPreambleExt(nil, ext)
	switch body := v.(type) {
	case *joinSeedBody:
		b = wirecodec.AppendStrings(b, body.OldMembers)
		b = wirecodec.AppendString(b, body.Joiner)
		b = wirecodec.AppendBigIntMap(b, body.Partials)
		b = wirecodec.AppendBigInt(b, body.PNew)
		b = wirecodec.AppendBigInt(b, body.SenderPub)
		b = wirecodec.AppendUvarint(b, body.TargetEpoch)
		b = wirecodec.AppendBytes(b, body.MAC)
	case *joinBcastBody:
		b = wirecodec.AppendStrings(b, body.Members)
		b = wirecodec.AppendBigIntMap(b, body.Entries)
		b = wirecodec.AppendBytesMap(b, body.EntryMACs)
		b = wirecodec.AppendBigInt(b, body.SenderPub)
		b = wirecodec.AppendUvarint(b, body.TargetEpoch)
	case *leaveBcastBody:
		b = wirecodec.AppendStrings(b, body.Members)
		b = wirecodec.AppendStrings(b, body.Left)
		b = wirecodec.AppendBool(b, body.Refresh)
		b = wirecodec.AppendBigIntMap(b, body.Entries)
		b = wirecodec.AppendBytesMap(b, body.EntryMACs)
		b = wirecodec.AppendUvarint(b, body.TargetEpoch)
		b = wirecodec.AppendBytes(b, body.MAC)
	case *mergeChainBody:
		b = wirecodec.AppendStrings(b, body.Members)
		b = wirecodec.AppendStrings(b, body.Merged)
		b = wirecodec.AppendInt(b, int64(body.Pos))
		b = wirecodec.AppendBigInt(b, body.U)
		b = wirecodec.AppendBigInt(b, body.SenderPub)
		b = wirecodec.AppendUvarint(b, body.TargetEpoch)
		b = wirecodec.AppendBytes(b, body.MAC)
	case *mergeFactorReqBody:
		b = wirecodec.AppendStrings(b, body.Members)
		b = wirecodec.AppendStrings(b, body.Merged)
		b = wirecodec.AppendBigInt(b, body.U)
		b = wirecodec.AppendBigInt(b, body.SenderPub)
		b = wirecodec.AppendUvarint(b, body.TargetEpoch)
		b = wirecodec.AppendBytesMap(b, body.MACs)
	case *mergeFactorRespBody:
		b = wirecodec.AppendBigInt(b, body.W)
		b = wirecodec.AppendBigInt(b, body.SenderPub)
		b = wirecodec.AppendUvarint(b, body.TargetEpoch)
		b = wirecodec.AppendBytes(b, body.MAC)
	case *mergeBcastBody:
		b = wirecodec.AppendStrings(b, body.Members)
		b = wirecodec.AppendBigIntMap(b, body.Entries)
		b = wirecodec.AppendBytesMap(b, body.EntryMACs)
		b = wirecodec.AppendBigInt(b, body.SenderPub)
		b = wirecodec.AppendUvarint(b, body.TargetEpoch)
	default:
		return encodeBodyGob(v)
	}
	return b, nil
}

func decodeBody(data []byte, v any) error {
	_, err := decodeBodyExt(data, v)
	return err
}

// decodeBodyExt is decodeBody plus the frame's causal-tracing extension
// (nil on V1 and gob frames).
func decodeBodyExt(data []byte, v any) (*wirecodec.Ext, error) {
	if !wirecodec.IsCodec(data) {
		return nil, decodeBodyGob(data, v)
	}
	d := wirecodec.NewDec(data)
	switch body := v.(type) {
	case *joinSeedBody:
		body.OldMembers = d.Strings()
		body.Joiner = d.String()
		body.Partials = d.BigIntMap()
		body.PNew = d.BigInt()
		body.SenderPub = d.BigInt()
		body.TargetEpoch = d.Uvarint()
		body.MAC = d.Bytes()
	case *joinBcastBody:
		body.Members = d.Strings()
		body.Entries = d.BigIntMap()
		body.EntryMACs = d.BytesMap()
		body.SenderPub = d.BigInt()
		body.TargetEpoch = d.Uvarint()
	case *leaveBcastBody:
		body.Members = d.Strings()
		body.Left = d.Strings()
		body.Refresh = d.Bool()
		body.Entries = d.BigIntMap()
		body.EntryMACs = d.BytesMap()
		body.TargetEpoch = d.Uvarint()
		body.MAC = d.Bytes()
	case *mergeChainBody:
		body.Members = d.Strings()
		body.Merged = d.Strings()
		body.Pos = int(d.Int())
		body.U = d.BigInt()
		body.SenderPub = d.BigInt()
		body.TargetEpoch = d.Uvarint()
		body.MAC = d.Bytes()
	case *mergeFactorReqBody:
		body.Members = d.Strings()
		body.Merged = d.Strings()
		body.U = d.BigInt()
		body.SenderPub = d.BigInt()
		body.TargetEpoch = d.Uvarint()
		body.MACs = d.BytesMap()
	case *mergeFactorRespBody:
		body.W = d.BigInt()
		body.SenderPub = d.BigInt()
		body.TargetEpoch = d.Uvarint()
		body.MAC = d.Bytes()
	case *mergeBcastBody:
		body.Members = d.Strings()
		body.Entries = d.BigIntMap()
		body.EntryMACs = d.BytesMap()
		body.SenderPub = d.BigInt()
		body.TargetEpoch = d.Uvarint()
	default:
		return nil, fmt.Errorf("decode cliques body: unsupported type %T", v)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("decode cliques body: %w", err)
	}
	return d.Ext(), nil
}

func encodeBodyGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("encode cliques body: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeBodyGob(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("decode cliques body: %w", err)
	}
	return nil
}
