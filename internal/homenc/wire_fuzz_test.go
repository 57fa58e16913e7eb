package homenc

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzCiphertextWire round-trips arbitrary integers and feeds arbitrary
// bytes to the decoder: a decode that succeeds must re-encode to the
// same canonical bytes, and no input may allocate past the bound or
// panic.
func FuzzCiphertextWire(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0x01, 0, 0, 0, 0},
		{0x02, 0, 0, 0, 1, 0xFF},
		{0x01, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3},
		mustMarshalCT(big.NewInt(0)),
		mustMarshalCT(big.NewInt(-123456789)),
		mustMarshalCT(new(big.Int).Lsh(big.NewInt(1), 2048)),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Ciphertext
		if err := c.UnmarshalBinaryBound(data, 1<<12); err != nil {
			return // malformed input must only error, never panic
		}
		out, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		// The encoding is canonical up to leading zero bytes in the
		// magnitude (big.Int.Bytes strips them), so a decode/encode
		// round trip of the re-encoded form must be a fixed point.
		var c2 Ciphertext
		if err := c2.UnmarshalBinary(out); err != nil {
			t.Fatalf("decode of canonical encoding failed: %v", err)
		}
		if c.V.Cmp(c2.V) != 0 {
			t.Fatalf("round trip changed value: %v != %v", c.V, c2.V)
		}
		out2, _ := c2.MarshalBinary()
		if !bytes.Equal(out, out2) {
			t.Fatalf("canonical encoding not a fixed point")
		}
	})
}

// FuzzPartialDecryptionWire does the same for partial decryptions
// (share index + value).
func FuzzPartialDecryptionWire(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 0, 1},
		{0, 0, 0, 1, 0x01, 0, 0, 0, 0},
		{0, 0, 0, 2, 0x02, 0, 0, 0, 2, 0xAB, 0xCD},
		{0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x7F, 0xFF, 0xFF, 0xFF, 1},
		mustMarshalPD(7, big.NewInt(424242)),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p PartialDecryption
		if err := p.UnmarshalBinaryBound(data, 1<<12); err != nil {
			return
		}
		out, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		var p2 PartialDecryption
		if err := p2.UnmarshalBinary(out); err != nil {
			t.Fatalf("decode of canonical encoding failed: %v", err)
		}
		if p2.Index != p.Index || p.V.Cmp(p2.V) != 0 {
			t.Fatalf("round trip changed (%d, %v) to (%d, %v)", p.Index, p.V, p2.Index, p2.V)
		}
	})
}

// FuzzVectorWire feeds arbitrary bytes to the bounded vector decoder:
// hostile counts and lengths must be rejected without large allocations.
func FuzzVectorWire(f *testing.F) {
	good, _ := MarshalVector([]Ciphertext{{V: big.NewInt(5)}, {V: big.NewInt(-9)}})
	f.Add(good)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})       // hostile count, no data
	f.Add([]byte{0, 0, 0, 2, 0x01, 0, 0, 0, 0}) // count 2, one element
	f.Add([]byte{0, 0, 0, 1, 0x03, 0, 0, 0, 0}) // bad tag
	f.Fuzz(func(t *testing.T, data []byte) {
		cts, err := UnmarshalVectorBound(data, 64, 1<<12)
		if err != nil {
			return
		}
		if len(cts) > 64 {
			t.Fatalf("decoded %d elements past the bound", len(cts))
		}
		out, err := MarshalVector(cts)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		cts2, err := UnmarshalVector(out)
		if err != nil || len(cts2) != len(cts) {
			t.Fatalf("canonical round trip failed: %v", err)
		}
	})
}

// FuzzIntsWire feeds arbitrary bytes and counts to the slab decoders
// (the path every network vector takes) alongside a one-at-a-time
// reference walk: they must agree on acceptance and on every value, and
// hostile lengths, tags, truncations and counts must only error.
func FuzzIntsWire(f *testing.F) {
	good := append(mustMarshalCT(big.NewInt(5)), mustMarshalCT(big.NewInt(-9))...)
	f.Add(good, uint16(2))
	f.Add([]byte{0x01, 0, 0, 0x10, 0x01, 1, 2, 3}, uint16(1)) // magnitude over the bound
	f.Add([]byte{0x01, 0, 0, 0, 5, 1, 2}, uint16(1))          // truncated magnitude
	f.Add([]byte{0x03, 0, 0, 0, 0}, uint16(1))                // bad tag
	f.Add(good, uint16(0xFFFF))                               // count larger than the payload
	f.Add(mustMarshalPD(3, big.NewInt(77)), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, count uint16) {
		n := int(count)
		ints, rest, err := UnmarshalIntsBound(data, n, 1<<12)
		p, refErr := data, error(nil)
		for i := 0; i < n && refErr == nil; i++ {
			var v *big.Int
			v, p, refErr = UnmarshalIntBound(p, 1<<12)
			if refErr == nil && ints != nil && ints[i].Cmp(v) != 0 {
				t.Fatalf("element %d: slab %v, reference %v", i, &ints[i], v)
			}
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("slab error %v, reference error %v", err, refErr)
		}
		if err == nil && (len(ints) != n || !bytes.Equal(rest, p)) {
			t.Fatalf("slab decoded %d elements and left %d bytes, want %d and %d", len(ints), len(rest), n, len(p))
		}
		ps, _, perr := UnmarshalPartialsBound(data, n, 1<<12)
		if perr == nil && len(ps) != n {
			t.Fatalf("partials decoded %d of %d", len(ps), n)
		}
	})
}

func mustMarshalCT(v *big.Int) []byte {
	b, err := Ciphertext{V: v}.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return b
}

func mustMarshalPD(idx int, v *big.Int) []byte {
	b, err := PartialDecryption{Index: idx, V: v}.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return b
}

// TestUnmarshalBoundsRejectBeforeAllocating pins the hardening contract:
// a frame advertising a magnitude or count beyond the caller's bound is
// rejected up front.
func TestUnmarshalBoundsRejectBeforeAllocating(t *testing.T) {
	// 4 GiB magnitude announcement in a 6-byte input.
	huge := []byte{0x01, 0xFF, 0xFF, 0xFF, 0xFE, 0x00}
	var c Ciphertext
	if err := c.UnmarshalBinaryBound(huge, 1<<16); err == nil {
		t.Fatal("hostile magnitude accepted")
	}
	// Magnitude exactly at the bound passes (given enough data).
	val := new(big.Int).Lsh(big.NewInt(1), 8*8-1) // 8-byte magnitude
	enc := mustMarshalCT(val)
	if err := c.UnmarshalBinaryBound(enc, 8); err != nil {
		t.Fatalf("in-bound magnitude rejected: %v", err)
	}
	if err := c.UnmarshalBinaryBound(enc, 7); err == nil {
		t.Fatal("out-of-bound magnitude accepted")
	}
	// 16M-element vector announcement in a 4-byte input.
	if _, err := UnmarshalVectorBound([]byte{0x00, 0xFF, 0xFF, 0xFF}, 1<<24, 16); err == nil {
		t.Fatal("hostile vector count accepted")
	}
	if _, err := UnmarshalVectorBound([]byte{0x00, 0x00, 0x00, 0x03}, 2, 16); err == nil {
		t.Fatal("vector count past bound accepted")
	}
}
