package homenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
)

// Wire formats: in a deployment the Diptych's encrypted means travel
// between devices on every gossip exchange, so ciphertexts and partial
// decryptions need a compact canonical encoding. The format is a 1-byte
// sign/kind tag, a 4-byte big-endian length, and the magnitude bytes.

const (
	wirePositive byte = 0x01
	wireNegative byte = 0x02
)

// DefaultMaxIntBytes bounds the magnitude of a decoded integer when the
// caller supplies no tighter bound: 64 KiB covers Damgård–Jurik
// ciphertexts up to a 4096-bit modulus at very high degrees with two
// orders of magnitude to spare, while refusing the 4 GiB allocations a
// hostile length prefix could otherwise request.
const DefaultMaxIntBytes = 64 << 10

// DefaultMaxVectorLen bounds the element count of a decoded ciphertext
// vector when the caller supplies no tighter bound.
const DefaultMaxVectorLen = 1 << 20

// MarshalBinary implements encoding.BinaryMarshaler for ciphertexts.
func (c Ciphertext) MarshalBinary() ([]byte, error) {
	if c.V == nil {
		return nil, errors.New("homenc: nil ciphertext")
	}
	return AppendInt(make([]byte, 0, IntWireSize(c.V)), c.V), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler with the
// DefaultMaxIntBytes magnitude bound.
func (c *Ciphertext) UnmarshalBinary(data []byte) error {
	return c.UnmarshalBinaryBound(data, DefaultMaxIntBytes)
}

// UnmarshalBinaryBound decodes a ciphertext whose magnitude must not
// exceed maxBytes (callers on a network boundary pass the scheme's
// actual ciphertext size, so a malicious frame cannot force a large
// allocation).
func (c *Ciphertext) UnmarshalBinaryBound(data []byte, maxBytes int) error {
	v, rest, err := UnmarshalIntBound(data, maxBytes)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("homenc: trailing bytes after ciphertext")
	}
	c.V = v
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler for partial
// decryptions: a 4-byte share index followed by the value.
func (p PartialDecryption) MarshalBinary() ([]byte, error) {
	if p.V == nil {
		return nil, errors.New("homenc: nil partial decryption")
	}
	out := make([]byte, 0, 4+IntWireSize(p.V))
	out = binary.BigEndian.AppendUint32(out, uint32(p.Index))
	return AppendInt(out, p.V), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler with the
// DefaultMaxIntBytes magnitude bound.
func (p *PartialDecryption) UnmarshalBinary(data []byte) error {
	return p.UnmarshalBinaryBound(data, DefaultMaxIntBytes)
}

// UnmarshalBinaryBound decodes a partial decryption whose magnitude
// must not exceed maxBytes.
func (p *PartialDecryption) UnmarshalBinaryBound(data []byte, maxBytes int) error {
	ps, rest, err := UnmarshalPartialsBound(data, 1, maxBytes)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("homenc: trailing bytes after partial decryption")
	}
	*p = ps[0]
	return nil
}

// MarshalVector encodes a ciphertext vector (the Diptych means payload)
// with a count prefix.
func MarshalVector(cts []Ciphertext) ([]byte, error) {
	size := 4
	for _, c := range cts {
		if c.V == nil {
			return nil, errors.New("homenc: nil ciphertext")
		}
		size += IntWireSize(c.V)
	}
	out := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(cts)))
	for _, c := range cts {
		out = AppendInt(out, c.V)
	}
	return out, nil
}

// UnmarshalVector decodes a MarshalVector payload with the default
// bounds (DefaultMaxVectorLen elements of DefaultMaxIntBytes each).
func UnmarshalVector(data []byte) ([]Ciphertext, error) {
	return UnmarshalVectorBound(data, DefaultMaxVectorLen, DefaultMaxIntBytes)
}

// UnmarshalVectorBound decodes a MarshalVector payload rejecting more
// than maxLen elements or any magnitude above maxBytes — both checked
// before allocating, so a hostile count or length prefix cannot reserve
// memory beyond what the frame itself carries.
func UnmarshalVectorBound(data []byte, maxLen, maxBytes int) ([]Ciphertext, error) {
	if len(data) < 4 {
		return nil, errors.New("homenc: short vector")
	}
	n := binary.BigEndian.Uint32(data)
	if maxLen < 0 {
		maxLen = 0
	}
	if uint64(n) > uint64(maxLen) {
		return nil, fmt.Errorf("homenc: vector length %d exceeds bound %d", n, maxLen)
	}
	ints, rest, err := UnmarshalIntsBound(data[4:], int(n), maxBytes)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errors.New("homenc: trailing bytes after vector")
	}
	out := make([]Ciphertext, n)
	for i := range out {
		out[i].V = &ints[i]
	}
	return out, nil
}

// MarshalInt encodes an arbitrary big integer in the package's
// canonical sign/length/magnitude format — the building block the wire
// protocol layer uses for epidemic weights and other protocol integers.
func MarshalInt(v *big.Int) []byte { return AppendInt(make([]byte, 0, IntWireSize(v)), v) }

// IntWireSize is the exact encoded size of v: the tag, the length and
// the minimal big-endian magnitude.
func IntWireSize(v *big.Int) int { return 5 + (v.BitLen()+7)/8 }

// AppendInt appends v's canonical encoding to dst, writing the
// magnitude straight into dst's tail: a dst with IntWireSize(v) spare
// capacity makes the call allocation-free.
func AppendInt(dst []byte, v *big.Int) []byte {
	n := IntWireSize(v)
	off := len(dst)
	dst = slices.Grow(dst, n)[:off+n]
	if v.Sign() < 0 {
		dst[off] = wireNegative
	} else {
		dst[off] = wirePositive
	}
	binary.BigEndian.PutUint32(dst[off+1:], uint32(n-5))
	v.FillBytes(dst[off+5:])
	return dst
}

// UnmarshalIntBound decodes one MarshalInt integer from the front of
// data, rejecting magnitudes above maxBytes before allocating, and
// returns the remaining bytes.
func UnmarshalIntBound(data []byte, maxBytes int) (*big.Int, []byte, error) {
	ints, rest, err := UnmarshalIntsBound(data, 1, maxBytes)
	if err != nil {
		return nil, nil, err
	}
	return &ints[0], rest, nil
}

// UnmarshalIntsBound decodes n consecutive MarshalInt integers from the
// front of data into one exact-size slab of big.Ints backed by one
// exact-size slab of words, and returns the remaining bytes. A pre-scan
// applies every check — tag, the maxBytes magnitude bound, truncation —
// before anything is allocated, so neither a hostile count nor a
// hostile length prefix can reserve memory the input does not carry.
// Each integer owns a capacity-capped window of the word slab: growing
// one in place reallocates it instead of overwriting its neighbour.
func UnmarshalIntsBound(data []byte, n, maxBytes int) ([]big.Int, []byte, error) {
	words, used, err := scanInts(data, n, 0, maxBytes)
	if err != nil {
		return nil, nil, err
	}
	ints := make([]big.Int, n)
	slab := make([]big.Word, words)
	p := data
	for i := range ints {
		p, slab = fillInt(&ints[i], p, slab)
	}
	return ints, data[used:], nil
}

// UnmarshalPartialsBound decodes n consecutive partial decryptions —
// each a 4-byte share index then a MarshalInt value, the layout of
// PartialDecryption.MarshalBinary — from the front of data into
// exact-size slabs, with UnmarshalIntsBound's checks and guarantees.
func UnmarshalPartialsBound(data []byte, n, maxBytes int) ([]PartialDecryption, []byte, error) {
	words, used, err := scanInts(data, n, 4, maxBytes)
	if err != nil {
		return nil, nil, err
	}
	out := make([]PartialDecryption, n)
	ints := make([]big.Int, n)
	slab := make([]big.Word, words)
	p := data
	for i := range out {
		out[i].Index = int(binary.BigEndian.Uint32(p))
		p, slab = fillInt(&ints[i], p[4:], slab)
		out[i].V = &ints[i]
	}
	return out, data[used:], nil
}

// wordBytes is the byte width of a big.Word on this platform.
const wordBytes = bits.UintSize / 8

// scanInts validates n integers laid out back to back at the front of
// data, each preceded by skip opaque bytes, without decoding them: it
// returns the words their magnitudes need and the bytes they span.
// maxBytes is the caller's bound on each magnitude: a length prefix
// beyond it is rejected before any allocation happens, which is what
// protects a network endpoint from a malicious frame advertising a huge
// integer.
func scanInts(data []byte, n, skip, maxBytes int) (words, used int, err error) {
	if n < 0 {
		return 0, 0, fmt.Errorf("homenc: negative integer count %d", n)
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	for i := 0; i < n; i++ {
		p := data[used:]
		if len(p) < skip+5 {
			return 0, 0, errors.New("homenc: short integer encoding")
		}
		p = p[skip:]
		if kind := p[0]; kind != wirePositive && kind != wireNegative {
			return 0, 0, fmt.Errorf("homenc: unknown integer tag 0x%02x", kind)
		}
		m := binary.BigEndian.Uint32(p[1:])
		if uint64(m) > uint64(maxBytes) {
			return 0, 0, fmt.Errorf("homenc: integer magnitude %d bytes exceeds bound %d", m, maxBytes)
		}
		if uint32(len(p)-5) < m {
			return 0, 0, errors.New("homenc: truncated integer encoding")
		}
		words += (int(m) + wordBytes - 1) / wordBytes
		used += skip + 5 + int(m)
	}
	return words, used, nil
}

// fillInt decodes the scanned integer at the front of data into z,
// backing it with the next words of slab (capacity-capped, so z cannot
// grow into the rest), and returns the remaining data and slab.
func fillInt(z *big.Int, data []byte, slab []big.Word) ([]byte, []big.Word) {
	m := int(binary.BigEndian.Uint32(data[1:]))
	mag := data[5 : 5+m]
	nw := (m + wordBytes - 1) / wordBytes
	w := slab[:nw:nw]
	// Big-endian bytes to little-endian words: word i holds the i-th
	// wordBytes-wide group counted from the least significant end; the
	// last (most significant) group may be short.
	for i := range w {
		end := m - i*wordBytes
		var x big.Word
		if end >= wordBytes {
			if wordBytes == 8 {
				x = big.Word(binary.BigEndian.Uint64(mag[end-8 : end]))
			} else {
				x = big.Word(binary.BigEndian.Uint32(mag[end-4 : end]))
			}
		} else {
			for _, b := range mag[:end] {
				x = x<<8 | big.Word(b)
			}
		}
		w[i] = x
	}
	z.SetBits(w)
	if data[0] == wireNegative {
		z.Neg(z)
	}
	return data[5+m:], slab[nw:]
}
