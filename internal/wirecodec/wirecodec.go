// Package wirecodec is the hand-rolled binary codec behind every hot wire
// format in the reproduction: daemon wire messages (internal/spread), the
// secure layer's envelopes (internal/core), flush-layer frames
// (internal/flush), and the key-agreement protocol bodies (internal/cliques,
// internal/ckd).
//
// The paper's data-plane numbers (Sections 5-6: message latency from 1 byte
// to 100 KB, sustained encrypted throughput) are dominated by per-message
// costs, and reflection-based encoding/gob pays them three times over: a
// type-description prefix on every message, reflection walks on encode and
// decode, and buffer churn. This codec replaces it on the steady-state
// paths with length-prefixed varint fields appended into pooled buffers.
//
// Format. Every encoded value starts with the two-byte preamble
//
//	[Magic 0x00] [Version 0x01]
//
// followed by a package-chosen kind tag (uvarint) and the kind's fields.
// Magic 0x00 can never begin a gob stream — gob prefixes each message with
// a nonzero uvarint byte count — so decoders dispatch on the first byte:
// 0x00 selects this codec, anything else falls back to gob. Old traces,
// fuzz corpora and mixed-version clusters therefore keep decoding.
//
// Encoding rules:
//   - unsigned integers: uvarint (encoding/binary AppendUvarint)
//   - signed integers: zigzag uvarint
//   - byte slices: nil-preserving length prefix (0 = nil, n+1 = n bytes),
//     so decode(encode(x)) is identical under reflect.DeepEqual — the
//     property the fuzz round-trip harnesses pin
//   - strings: uvarint length + bytes
//   - *big.Int: presence/sign byte (0 nil, 1 zero-or-positive, 2 negative)
//     followed by the magnitude bytes
//   - slices and maps: nil-preserving count prefix; maps are encoded in
//     sorted key order so encoding is deterministic
//
// Pooling. Encoders append into buffers from GetBuf/PutBuf. Buffers handed
// to transport Send may be recycled as soon as Send returns: both transports
// copy (MemNetwork into its delivery queue, TCP into a pooled frame on the
// peer's send queue) and never retain the caller's slice.
package wirecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/obs"
)

// Preamble bytes shared by every package-level format built on this codec.
const (
	// Magic is the first byte of every wirecodec encoding. A gob stream
	// begins with a nonzero message length, so this byte alone
	// discriminates codec frames from legacy gob frames.
	Magic = 0x00
	// V1 is the base format version, the second byte of the preamble.
	V1 = 0x01
	// V2 is V1 plus a length-prefixed causal-tracing extension between
	// the preamble and the body: the sender's hybrid-logical-clock stamp
	// and the (node, seq) reference of the send trace event. The length
	// prefix makes the extension self-delimiting, so decoders skip
	// fields appended by future versions, and a V2 frame with the
	// extension stripped is byte-for-byte a V1 frame.
	V2 = 0x02
)

// Errors returned by decoding.
var (
	ErrTruncated  = errors.New("wirecodec: truncated input")
	ErrBadVersion = errors.New("wirecodec: unknown format version")
	ErrNotCodec   = errors.New("wirecodec: input is not a wirecodec frame")
	ErrOverflow   = errors.New("wirecodec: varint overflows")
	ErrTrailing   = errors.New("wirecodec: trailing bytes after value")
)

// IsCodec reports whether data begins with a wirecodec preamble (any
// known version), i.e. whether the new codec (rather than the gob
// fallback) should decode it.
func IsCodec(data []byte) bool {
	return len(data) >= 2 && data[0] == Magic && (data[1] == V1 || data[1] == V2)
}

// AppendPreamble appends the [Magic][V1] preamble.
func AppendPreamble(b []byte) []byte { return append(b, Magic, V1) }

// Ext is the V2 causal-tracing wire extension: the sender's hybrid
// logical clock at send time plus the trace reference of the send
// event. Receivers merge HLC into their clock (so receive stamps order
// after the send, whatever the host clocks say) and record From as the
// causal parent of the receive event. From.Seq == 0 means the sender
// stamped the clock but recorded no send event (heartbeats and other
// chatter that would flood the trace ring).
type Ext struct {
	From obs.EventRef
	HLC  obs.HLC
}

// AppendPreambleExt appends the preamble, versioned by the extension: a
// nil ext emits a plain V1 preamble (byte-identical to AppendPreamble,
// so old peers keep decoding), a non-nil ext emits [Magic][V2] and the
// length-prefixed extension payload. The body that follows is the same
// either way.
func AppendPreambleExt(b []byte, ext *Ext) []byte {
	if ext == nil {
		return append(b, Magic, V1)
	}
	b = append(b, Magic, V2)
	// Payload built on the stack: node + 3 varints stay tiny.
	var tmp [64]byte
	p := tmp[:0]
	p = AppendString(p, ext.From.Node)
	p = binary.AppendUvarint(p, ext.From.Seq)
	p = AppendInt(p, ext.HLC.Wall)
	p = binary.AppendUvarint(p, ext.HLC.Logical)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// ---- append-style encoding primitives ----

// AppendUvarint appends u as a uvarint.
func AppendUvarint(b []byte, u uint64) []byte { return binary.AppendUvarint(b, u) }

// AppendInt appends i as a zigzag-encoded uvarint.
func AppendInt(b []byte, i int64) []byte {
	return binary.AppendUvarint(b, uint64(i)<<1^uint64(i>>63))
}

// AppendBool appends a boolean as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends a nil-preserving length-prefixed byte slice: nil
// encodes as count 0, a slice of n bytes as count n+1 followed by the bytes.
func AppendBytes(b, v []byte) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(v))+1)
	return append(b, v...)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStrings appends a nil-preserving string slice.
func AppendStrings(b []byte, v []string) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(v))+1)
	for _, s := range v {
		b = AppendString(b, s)
	}
	return b
}

// big.Int presence/sign bytes.
const (
	bigNil = 0
	bigPos = 1 // zero or positive
	bigNeg = 2
)

// AppendBigInt appends a *big.Int: presence/sign byte plus magnitude bytes.
func AppendBigInt(b []byte, v *big.Int) []byte {
	if v == nil {
		return append(b, bigNil)
	}
	if v.Sign() < 0 {
		b = append(b, bigNeg)
	} else {
		b = append(b, bigPos)
	}
	mag := v.Bytes()
	b = binary.AppendUvarint(b, uint64(len(mag)))
	return append(b, mag...)
}

// ---- decoding ----

// Dec is a bounds-checked reader over one encoded value. Methods record the
// first error and become no-ops afterwards, so decode sequences read
// straight through and check Err once. Byte-slice reads alias the input —
// callers that retain decoded values past the input buffer's lifetime (all
// current callers decode from freshly received frames, which they own)
// need no copies.
type Dec struct {
	b   []byte
	off int
	err error
	ext *Ext
}

// NewDec builds a decoder over data positioned after the preamble. It
// verifies the preamble (parsing the V2 causal extension when present)
// and returns ErrNotCodec / ErrBadVersion mismatches through the
// decoder's error state.
func NewDec(data []byte) *Dec {
	d := &Dec{b: data}
	if len(data) < 2 || data[0] != Magic {
		d.err = ErrNotCodec
		return d
	}
	switch data[1] {
	case V1:
		d.off = 2
	case V2:
		d.off = 2
		d.readExt()
	default:
		d.err = ErrBadVersion
	}
	return d
}

// readExt parses the V2 extension block. The length prefix delimits it,
// so fields appended by future versions are skipped; a block whose
// declared fields overrun the prefix is corrupt.
func (d *Dec) readExt() {
	n := d.Uvarint()
	if d.err != nil {
		return
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(ErrTruncated)
		return
	}
	end := d.off + int(n)
	if n == 0 {
		return // stampless V2 frame: legal, same as V1
	}
	var ext Ext
	ext.From.Node = d.String()
	ext.From.Seq = d.Uvarint()
	ext.HLC.Wall = d.Int()
	ext.HLC.Logical = d.Uvarint()
	if d.err != nil {
		return
	}
	if d.off > end {
		d.fail(ErrTruncated)
		return
	}
	d.off = end // skip unknown future fields
	d.ext = &ext
}

// Ext returns the frame's causal-tracing extension, or nil for V1
// frames (and V2 frames with an empty extension block).
func (d *Dec) Ext() *Ext { return d.ext }

// Err returns the first decoding error, or nil.
func (d *Dec) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Dec) Len() int { return len(d.b) - d.off }

// Close verifies the value was consumed exactly.
func (d *Dec) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return ErrTrailing
	}
	return nil
}

func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint reads one uvarint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(ErrOverflow)
		}
		return 0
	}
	d.off += n
	return u
}

// Int reads one zigzag-encoded signed integer.
func (d *Dec) Int() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads one boolean byte.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail(ErrTruncated)
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 {
		d.fail(fmt.Errorf("wirecodec: invalid bool byte %d", v))
		return false
	}
	return v == 1
}

// take reads n raw bytes, aliasing the input.
func (d *Dec) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(ErrTruncated)
		return nil
	}
	out := d.b[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return out
}

// Bytes reads a nil-preserving byte slice (see AppendBytes). The returned
// slice aliases the input.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	return d.take(n - 1)
}

// CopyBytes reads a nil-preserving byte slice into fresh memory, for values
// retained past the input buffer's lifetime.
func (d *Dec) CopyBytes() []byte {
	v := d.Bytes()
	if v == nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	return string(d.take(n))
}

// Strings reads a nil-preserving string slice.
func (d *Dec) Strings() []string {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	n--
	// A hostile count cannot force a huge allocation: each element costs at
	// least one length byte, so the count is bounded by the unread input.
	if n > uint64(d.Len()) {
		d.fail(ErrTruncated)
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.String())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Count reads a nil-preserving container count (0 = nil container) and
// bounds it by the remaining input: present containers cost at least one
// byte per element, so anything larger is corrupt. It returns the element
// count and whether the container was present.
func (d *Dec) Count() (uint64, bool) {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return 0, false
	}
	n--
	if n > uint64(d.Len()) {
		d.fail(ErrTruncated)
		return 0, false
	}
	return n, true
}

// BigInt reads a *big.Int (see AppendBigInt).
func (d *Dec) BigInt() *big.Int {
	if d.err != nil {
		return nil
	}
	if d.off >= len(d.b) {
		d.fail(ErrTruncated)
		return nil
	}
	tag := d.b[d.off]
	d.off++
	if tag == bigNil {
		return nil
	}
	if tag != bigPos && tag != bigNeg {
		d.fail(fmt.Errorf("wirecodec: invalid big.Int tag %d", tag))
		return nil
	}
	mag := d.take(d.Uvarint())
	if d.err != nil {
		return nil
	}
	v := new(big.Int).SetBytes(mag)
	if tag == bigNeg {
		v.Neg(v)
	}
	return v
}

// UvarintLen returns the encoded size of u, for pre-sizing buffers.
func UvarintLen(u uint64) int {
	return (bits.Len64(u|1) + 6) / 7
}
