package transport

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// TestAppendFrameRejectsLongFrom pins the fix for a silent corruption: a
// sender name longer than 65535 bytes used to truncate into the uint16
// length field, producing a frame the receiver would misparse. It must be
// rejected outright, with dst unmodified, so a valid frame appended
// afterwards is the first thing on the wire.
func TestAppendFrameRejectsLongFrom(t *testing.T) {
	buf, err := AppendFrame(nil, strings.Repeat("x", maxFrom+1), []byte("payload"))
	if err == nil {
		t.Fatal("AppendFrame accepted a from name longer than 65535 bytes")
	}
	if len(buf) != 0 {
		t.Fatalf("rejected frame left %d bytes in dst", len(buf))
	}
	buf, err = AppendFrame(buf, "ok", []byte("payload"))
	if err != nil {
		t.Fatalf("valid frame after rejected frame: %v", err)
	}
	from, data, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("read valid frame: %v", err)
	}
	if from != "ok" || string(data) != "payload" {
		t.Fatalf("frame corrupted by rejected predecessor: from=%q data=%q", from, data)
	}
}

// TestAppendFrameRejectsOversizedPayload bounds the total frame length.
func TestAppendFrameRejectsOversizedPayload(t *testing.T) {
	data := make([]byte, maxFrame-1) // 2 + len(from) pushes it over
	buf, err := AppendFrame(nil, "name", data)
	if err == nil {
		t.Fatal("AppendFrame accepted a frame larger than maxFrame")
	}
	if len(buf) != 0 {
		t.Fatalf("rejected frame left %d bytes in dst", len(buf))
	}
}

// TestAppendFrameRoundTrip: frames appended back to back split correctly on
// the read side (the invariant the batched writev path relies on).
func TestAppendFrameRoundTrip(t *testing.T) {
	var wire []byte
	var err error
	payloads := []string{"a", "", "third frame with more bytes"}
	for _, p := range payloads {
		wire, err = AppendFrame(wire, "n0", []byte(p))
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(wire)
	for i, want := range payloads {
		from, data, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if from != "n0" || string(data) != want {
			t.Fatalf("frame %d corrupted: from=%q data=%q", i, from, data)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after all frames read", r.Len())
	}
}

// TestReadFrameMalformedHeader covers headers whose claimed lengths are
// inconsistent or hostile: the reader must error out, not allocate or
// misparse.
func TestReadFrameMalformedHeader(t *testing.T) {
	cases := map[string]func(hdr []byte){
		"total-exceeds-max": func(hdr []byte) {
			binary.BigEndian.PutUint32(hdr[:4], maxFrame+1)
			binary.BigEndian.PutUint16(hdr[4:], 0)
		},
		"fromlen-exceeds-total": func(hdr []byte) {
			binary.BigEndian.PutUint32(hdr[:4], 10)
			binary.BigEndian.PutUint16(hdr[4:], 20)
		},
		"total-below-minimum": func(hdr []byte) {
			binary.BigEndian.PutUint32(hdr[:4], 1)
			binary.BigEndian.PutUint16(hdr[4:], 0)
		},
	}
	for name, fill := range cases {
		t.Run(name, func(t *testing.T) {
			hdr := make([]byte, 6)
			fill(hdr)
			if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
				t.Fatal("ReadFrame accepted a malformed header")
			}
		})
	}
}

// TestReadFrameHostileLengthNoUpfrontAlloc: a header claiming a huge frame
// followed by connection loss must fail with a bounded allocation — the
// incremental reader only commits readChunk before any payload arrives.
func TestReadFrameHostileLengthNoUpfrontAlloc(t *testing.T) {
	hdr := make([]byte, 6)
	binary.BigEndian.PutUint32(hdr[:4], maxFrame) // maximal plausible claim
	binary.BigEndian.PutUint16(hdr[4:], 0)
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("ReadFrame accepted a truncated frame")
	}
	// Directly verify the reader survives the first chunk arriving and then
	// the stream dying, without committing total-2 upfront.
	var buf bytes.Buffer
	buf.Write(hdr)
	buf.Write(make([]byte, readChunk)) // first chunk arrives, then EOF
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("ReadFrame accepted a frame cut off mid-payload")
	}
}

// TestReadFrameLargePayloadRoundTrip exercises the incremental growth path
// end to end (payload spanning several readChunk doublings).
func TestReadFrameLargePayloadRoundTrip(t *testing.T) {
	payload := make([]byte, 3*readChunk+17)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	wire, err := AppendFrame(nil, "sender", payload)
	if err != nil {
		t.Fatal(err)
	}
	from, data, err := ReadFrame(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if from != "sender" || !bytes.Equal(data, payload) {
		t.Fatalf("large frame corrupted: from=%q len=%d", from, len(data))
	}
}
