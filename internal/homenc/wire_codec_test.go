package homenc

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"runtime"
	"testing"
)

// refMarshalInt is the original Bytes()-based integer encoder, kept as
// the reference the append encoder must reproduce byte for byte.
func refMarshalInt(v *big.Int) []byte {
	mag := v.Bytes()
	out := make([]byte, 5+len(mag))
	if v.Sign() < 0 {
		out[0] = wireNegative
	} else {
		out[0] = wirePositive
	}
	binary.BigEndian.PutUint32(out[1:], uint32(len(mag)))
	copy(out[5:], mag)
	return out
}

// refUnmarshalInt is the original SetBytes-based decoder of one
// well-formed integer, the reference for the slab decoder's values.
func refUnmarshalInt(data []byte) (*big.Int, []byte) {
	n := binary.BigEndian.Uint32(data[1:])
	v := new(big.Int).SetBytes(data[5 : 5+n])
	if data[0] == wireNegative {
		v.Neg(v)
	}
	return v, data[5+n:]
}

// codecValues covers zero, ±1, negatives, magnitudes on both sides of
// the 4- and 8-byte word boundaries, and Damgård–Jurik-size values.
func codecValues() []*big.Int {
	vals := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(-123456789)}
	for _, nbytes := range []int{3, 4, 5, 7, 8, 9, 16, 17, 256} {
		top := new(big.Int).Lsh(big.NewInt(1), uint(8*nbytes-1)) // exactly nbytes bytes
		full := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(8*nbytes)), big.NewInt(1))
		mixed := new(big.Int).SetBytes(bytes.Repeat([]byte{0xA5, 0x01, 0x7F}, nbytes)[:nbytes])
		vals = append(vals, top, full, mixed, new(big.Int).Neg(top), new(big.Int).Neg(mixed))
	}
	return vals
}

func TestAppendIntMatchesReference(t *testing.T) {
	for _, v := range codecValues() {
		want := refMarshalInt(v)
		if got := IntWireSize(v); got != len(want) {
			t.Errorf("IntWireSize(%v) = %d, want %d", v, got, len(want))
		}
		if got := AppendInt(nil, v); !bytes.Equal(got, want) {
			t.Errorf("AppendInt(nil, %v) = %x, want %x", v, got, want)
		}
		prefix := []byte{0xEE, 0xEE}
		if got := AppendInt(prefix, v); !bytes.Equal(got, append([]byte{0xEE, 0xEE}, want...)) {
			t.Errorf("AppendInt(prefix, %v) = %x", v, got)
		}
		if got := MarshalInt(v); !bytes.Equal(got, want) {
			t.Errorf("MarshalInt(%v) = %x, want %x", v, got, want)
		}
		if got, _ := (Ciphertext{V: v}).MarshalBinary(); !bytes.Equal(got, want) {
			t.Errorf("Ciphertext.MarshalBinary(%v) = %x, want %x", v, got, want)
		}
		pd, _ := PartialDecryption{Index: 9, V: v}.MarshalBinary()
		if want := append([]byte{0, 0, 0, 9}, want...); !bytes.Equal(pd, want) {
			t.Errorf("PartialDecryption.MarshalBinary(%v) = %x, want %x", v, pd, want)
		}
	}
	vals := codecValues()
	cts := make([]Ciphertext, len(vals))
	want := binary.BigEndian.AppendUint32(nil, uint32(len(vals)))
	for i, v := range vals {
		cts[i] = Ciphertext{V: v}
		want = append(want, refMarshalInt(v)...)
	}
	if got, _ := MarshalVector(cts); !bytes.Equal(got, want) {
		t.Error("MarshalVector differs from the reference encoding")
	}
}

func TestSlabDecodeMatchesReference(t *testing.T) {
	vals := codecValues()
	var wire []byte
	for _, v := range vals {
		wire = append(wire, refMarshalInt(v)...)
	}
	// A non-minimal magnitude (leading zero bytes) still decodes to its
	// value, as SetBytes did.
	padded := []byte{wirePositive, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0x12, 0x34}
	wire = append(wire, padded...)
	n := len(vals) + 1

	ints, rest, err := UnmarshalIntsBound(append(wire, 0xCC), n, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, []byte{0xCC}) {
		t.Fatalf("rest = %x", rest)
	}
	p := wire
	for i := 0; i < n; i++ {
		want, next := refUnmarshalInt(p)
		one, oneRest, err := UnmarshalIntBound(p, 256)
		if err != nil {
			t.Fatal(err)
		}
		if ints[i].Cmp(want) != 0 || one.Cmp(want) != 0 {
			t.Errorf("element %d: slab %v, single %v, want %v", i, &ints[i], one, want)
		}
		if !bytes.Equal(oneRest, next) {
			t.Errorf("element %d: UnmarshalIntBound consumed the wrong bytes", i)
		}
		p = next
	}

	var pwire []byte
	for i, v := range vals {
		pwire = binary.BigEndian.AppendUint32(pwire, uint32(i+1))
		pwire = append(pwire, refMarshalInt(v)...)
	}
	ps, rest, err := UnmarshalPartialsBound(pwire, len(vals), 256)
	if err != nil || len(rest) != 0 {
		t.Fatalf("partials: %v, %d trailing bytes", err, len(rest))
	}
	for i, v := range vals {
		if ps[i].Index != i+1 || ps[i].V.Cmp(v) != 0 {
			t.Errorf("partial %d = (%d, %v), want (%d, %v)", i, ps[i].Index, ps[i].V, i+1, v)
		}
	}
}

// TestSlabNeighboursIsolated pins the capacity capping: growing or
// rewriting one decoded integer in place must leave the integers that
// share its slabs untouched.
func TestSlabNeighboursIsolated(t *testing.T) {
	allOnes := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(1)) // whole words
	vals := []*big.Int{allOnes, big.NewInt(-42), new(big.Int).Set(allOnes), big.NewInt(7)}
	var wire []byte
	for _, v := range vals {
		wire = AppendInt(wire, v)
	}
	ints, _, err := UnmarshalIntsBound(wire, len(vals), 64)
	if err != nil {
		t.Fatal(err)
	}
	ints[0].Add(&ints[0], big.NewInt(1)) // carries into a new top word
	ints[2].Lsh(&ints[2], 200)           // grows by several words
	ints[1].SetBytes(bytes.Repeat([]byte{0xFF}, 64))
	if ints[3].Cmp(big.NewInt(7)) != 0 {
		t.Fatalf("last neighbour changed to %v", &ints[3])
	}
	if want := new(big.Int).Lsh(big.NewInt(1), 128); ints[0].Cmp(want) != 0 {
		t.Fatalf("grown integer = %v, want %v", &ints[0], want)
	}
	if want := new(big.Int).Lsh(allOnes, 200); ints[2].Cmp(want) != 0 {
		t.Fatalf("shifted integer = %v, want %v", &ints[2], want)
	}
	if ints[1].BitLen() != 512 {
		t.Fatalf("rewritten integer = %v", &ints[1])
	}

	ps, _, err := UnmarshalPartialsBound(append(mustMarshalPD(1, allOnes), mustMarshalPD(2, big.NewInt(5))...), 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	ps[0].V.Add(ps[0].V, big.NewInt(1))
	if ps[1].V.Cmp(big.NewInt(5)) != 0 {
		t.Fatalf("partial neighbour changed to %v", ps[1].V)
	}
}

// TestSlabDecodeRejectsHostileInput drives the slab decoders with the
// inputs a hostile frame can carry: each must error before allocating.
func TestSlabDecodeRejectsHostileInput(t *testing.T) {
	good := append(MarshalInt(big.NewInt(5)), MarshalInt(big.NewInt(-9))...)
	cases := map[string]struct {
		data []byte
		n    int
	}{
		"over-bound length":   {[]byte{wirePositive, 0, 1, 0, 0, 1, 2, 3}, 1},
		"4 GiB length":        {[]byte{wirePositive, 0xFF, 0xFF, 0xFF, 0xFF}, 1},
		"truncated magnitude": {[]byte{wirePositive, 0, 0, 0, 5, 1, 2}, 1},
		"bad tag":             {[]byte{0x03, 0, 0, 0, 0}, 1},
		"count past payload":  {good, 3},
		"huge count":          {good, 1 << 30},
		"short header":        {[]byte{wirePositive, 0, 0}, 1},
		"negative count":      {good, -1},
	}
	for name, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			if _, _, err := UnmarshalIntsBound(c.data, c.n, 16); err == nil {
				t.Errorf("%s: ints accepted", name)
			}
		}
		runtime.ReadMemStats(&after)
		// The error value and its message only, never a slab (the
		// hostile lengths and counts above would ask for 64 KiB to GiBs).
		if perCall := (after.TotalAlloc - before.TotalAlloc) / 10; perCall > 4096 {
			t.Errorf("%s: %d bytes allocated per rejection", name, perCall)
		}
		if _, _, err := UnmarshalPartialsBound(c.data, c.n, 16); err == nil {
			t.Errorf("%s: partials accepted", name)
		}
	}
}

func TestAppendIntAllocationFree(t *testing.T) {
	v := new(big.Int).Lsh(big.NewInt(3), 2040)
	buf := make([]byte, 0, 3*IntWireSize(v))
	if allocs := testing.AllocsPerRun(100, func() {
		buf = AppendInt(AppendInt(buf[:0], v), v)
	}); allocs != 0 {
		t.Fatalf("AppendInt into spare capacity allocated %v times", allocs)
	}
	for _, marshal := range []func() ([]byte, error){
		func() ([]byte, error) { return Ciphertext{V: v}.MarshalBinary() },
		func() ([]byte, error) { return PartialDecryption{Index: 3, V: v}.MarshalBinary() },
		func() ([]byte, error) { return MarshalVector([]Ciphertext{{V: v}, {V: v}}) },
		func() ([]byte, error) { return MarshalInt(v), nil },
	} {
		if allocs := testing.AllocsPerRun(100, func() { _, _ = marshal() }); allocs != 1 {
			t.Errorf("marshal allocated %v times, want 1", allocs)
		}
	}
}
