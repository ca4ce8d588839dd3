package transport

import (
	"encoding/binary"
	"fmt"
)

// WirePayload is a payload that writes its own bytes on the real-wire backend
// instead of going through gob: the payload types on every replicated write's
// path implement it, so their frames cost neither reflection nor the
// allocations gob's decoder makes per value. It is declared here, not in
// wiretransport, because the packages that own such payloads are imported by
// wiretransport's tests. The simulated Network hands payloads over by
// reference and never calls it.
type WirePayload interface {
	// WireTag names the decoder registered (RegisterWire) for the bytes
	// AppendWire writes.
	WireTag() byte
	// AppendWire appends the payload's wire form to dst. For a value the form
	// cannot carry it reports false and returns dst as it came; the frame then
	// goes through gob.
	AppendWire(dst []byte) ([]byte, bool)
}

// WireDecoder rebuilds a payload from what its AppendWire wrote, as the same
// dynamic type the sender passed to Send. Receivers install decoded state by
// reference and the frame's bytes are overwritten by the next, so nothing the
// decoder returns may alias the reader's bytes. What a receiver keeps — state,
// vectors, names — is freshly allocated; the payload's own block may come from
// its decoder's free list, when the payload is a Releaser. Malformed input is
// reported through the reader (Fail), whose result is then discarded.
type WireDecoder func(r *WireReader) any

// Releaser is a payload whose memory its decoder reuses. The wire transport
// calls Release on a request it decoded once the handler has returned and the
// response is written: the payload was the handler's to read until then
// (Handler). The simulated Network delivers the sender's own payload and never
// calls it.
type Releaser interface {
	Release()
}

// wireDecoders is filled by init functions only and read afterwards.
var wireDecoders [256]WireDecoder

// RegisterWire installs the decoder for one payload tag. Like gob.Register it
// is called from the init of the package that owns the type (its wire.go) and
// panics on a tag that is already taken.
func RegisterWire(tag byte, dec WireDecoder) {
	if wireDecoders[tag] != nil {
		panic(fmt.Sprintf("transport: wire tag %d registered twice", tag))
	}
	wireDecoders[tag] = dec
}

// WireDecoderFor returns the decoder registered for tag, nil when there is
// none.
func WireDecoderFor(tag byte) WireDecoder { return wireDecoders[tag] }

// AppendWireString appends s as its length and bytes, the form
// WireReader.String and Name read.
func AppendWireString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendWireMapLen appends the header of a map with n entries, the form
// WireReader.MapLen reads: n plus one, and zero for a nil map. A list's header
// is its plain count, but a map's keeps nil and empty apart because gob does,
// and a receiver must install the same value whichever body a frame had.
func AppendWireMapLen(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

// Bounds of a WireReader's name table. The names it holds are the
// deployment's vocabulary — node IDs, message kinds, class and attribute
// names — a few dozen short strings, so a table of this size never fills in
// practice; the bounds are there because the bytes come from a peer, which
// must not be able to grow a link's memory without limit (at most 64 KiB of
// names per link). A name beyond either bound is still decoded, as a fresh
// string.
const (
	maxWireNames   = 1024
	maxWireNameLen = 64
)

// WireReader is a cursor over the bytes of one self-encoded frame, plus the
// name table of the link the frames arrive on. The first failure sticks: every
// later read returns a zero value, so a decoder reads straight through and
// the caller checks Err once.
type WireReader struct {
	b     []byte
	err   error
	names map[string]string
}

// Reset points the reader at the next frame's bytes; the name table stays.
func (r *WireReader) Reset(b []byte) { r.b, r.err = b, nil }

// Len returns the number of unread bytes.
func (r *WireReader) Len() int { return len(r.b) }

// Err returns the first failure since Reset.
func (r *WireReader) Err() error { return r.err }

// Fail marks the input malformed; the first failure is the one kept.
func (r *WireReader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

func (r *WireReader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.Fail("truncated: %d bytes wanted, %d remain", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Byte reads one byte.
func (r *WireReader) Byte() byte {
	if b := r.take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

// Uvarint reads an unsigned varint (binary.AppendUvarint).
func (r *WireReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a signed varint (binary.AppendVarint).
func (r *WireReader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Uint64 reads eight big-endian bytes.
func (r *WireReader) Uint64() uint64 {
	if b := r.take(8); len(b) == 8 {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Count reads the element count of a list whose elements take at least min
// bytes each, and fails the reader when that many cannot fit in the bytes
// that remain — the check that comes before a count sizes an allocation.
func (r *WireReader) Count(min int) int { return r.fit(r.Uvarint(), min) }

// MapLen reads a map header (AppendWireMapLen) with Count's check: the
// number of entries, or isNil for the nil map.
func (r *WireReader) MapLen(min int) (n int, isNil bool) {
	c := r.Uvarint()
	if c == 0 {
		return 0, true
	}
	return r.fit(c-1, min), false
}

func (r *WireReader) fit(n uint64, min int) int {
	if n > uint64(len(r.b)/min) {
		r.Fail("count %d exceeds the %d bytes that remain", n, len(r.b))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string into fresh memory: the form for
// values that differ from message to message (object IDs, attribute values).
func (r *WireReader) String() string { return string(r.take(r.Uvarint())) }

// Name reads a length-prefixed string through the link's name table, so a
// name that recurs in every message is allocated once per link.
func (r *WireReader) Name() string {
	b := r.take(r.Uvarint())
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxWireNameLen && len(r.names) < maxWireNames && r.err == nil {
		if r.names == nil {
			r.names = make(map[string]string)
		}
		r.names[s] = s
	}
	return s
}
