package wireproto

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
)

// refInt is the original Bytes()-based integer encoding.
func refInt(v *big.Int) []byte {
	mag := v.Bytes()
	tag := byte(0x01)
	if v.Sign() < 0 {
		tag = 0x02
	}
	return append(binary.BigEndian.AppendUint32([]byte{tag}, uint32(len(mag))), mag...)
}

// refSumState and refPartials rebuild the original message layouts
// integer by integer, as the reference the presized encoders must match.
func refSumState(e *enc, st eesum.SumState) {
	e.u32(uint32(len(st.CTs)))
	for _, ct := range st.CTs {
		e.b = append(e.b, refInt(ct.V)...)
	}
	e.b = append(e.b, refInt(st.Omega)...)
	e.u32(uint32(st.Epoch))
}

func refPartials(e *enc, ps []homenc.PartialDecryption) {
	e.u32(uint32(len(ps)))
	for _, p := range ps {
		e.u32(uint32(p.Index))
		e.b = append(e.b, refInt(p.V)...)
	}
}

// packedInt is a ciphertext-sized value (ctBytes bytes) varying with i.
func packedInt(i, ctBytes int) *big.Int {
	b := bytes.Repeat([]byte{byte(0x80 | i), 0x5A, byte(i)}, ctBytes/3+1)[:ctBytes]
	return new(big.Int).SetBytes(b)
}

// packedDec is a decryption response the shape the runtime sends: a
// dim-long ciphertext vector, its weight, tau-1 gathered share sets and
// the responder's fresh partials, every integer ctBytes wide.
func packedDec(dim, tau, ctBytes int) DecMsg {
	m := DecMsg{
		Hdr:   ExchangeHdr{Iter: 1, Cycle: 3, Seq: 7, From: 2, To: 9},
		CTs:   make([]homenc.Ciphertext, dim),
		Omega: new(big.Int).Lsh(big.NewInt(1), 40),
		Parts: make(map[int][]homenc.PartialDecryption),
	}
	for i := range m.CTs {
		m.CTs[i] = homenc.Ciphertext{V: packedInt(i, ctBytes)}
	}
	partials := func(share int) []homenc.PartialDecryption {
		ps := make([]homenc.PartialDecryption, dim)
		for i := range ps {
			ps[i] = homenc.PartialDecryption{Index: share, V: packedInt(i+share, ctBytes)}
		}
		return ps
	}
	for share := 1; share < tau; share++ {
		m.Parts[share] = partials(share)
	}
	m.Fresh = partials(tau)
	return m
}

func packedSum(dim, ctBytes int) SumMsg {
	st := func(off int) eesum.SumState {
		cts := make([]homenc.Ciphertext, dim)
		for i := range cts {
			cts[i] = homenc.Ciphertext{V: packedInt(i+off, ctBytes)}
		}
		return eesum.SumState{CTs: cts, Omega: big.NewInt(1 << 20), Epoch: 4}
	}
	return SumMsg{Hdr: ExchangeHdr{Iter: 2, Seq: 1, From: 3, To: 4}, Means: st(0), Noise: st(1), CtrSigma: 0.5, CtrOmega: 2}
}

func TestMessagesMatchReferenceEncoding(t *testing.T) {
	sum := packedSum(5, 33)
	sum.Means.CTs[1].V.Neg(sum.Means.CTs[1].V)
	sum.Noise.CTs[0].V.SetInt64(0)
	var want enc
	sum.Hdr.encode(&want)
	refSumState(&want, sum.Means)
	refSumState(&want, sum.Noise)
	want.f64(sum.CtrSigma)
	want.f64(sum.CtrOmega)
	if got := MarshalSum(sum); !bytes.Equal(got, want.b) {
		t.Fatal("MarshalSum differs from the reference encoding")
	}

	for _, dec := range []DecMsg{packedDec(4, 3, 17), {Hdr: ExchangeHdr{Seq: 1}}} {
		var want enc
		dec.Hdr.encode(&want)
		want.u32(uint32(len(dec.CTs)))
		for _, ct := range dec.CTs {
			want.b = append(want.b, refInt(ct.V)...)
		}
		want.b = append(want.b, refInt(dec.omega())...)
		want.u16(uint16(len(dec.Parts)))
		for idx := 0; idx < 16; idx++ {
			if ps, ok := dec.Parts[idx]; ok {
				want.u32(uint32(idx))
				refPartials(&want, ps)
			}
		}
		refPartials(&want, dec.Fresh)
		if got := MarshalDec(dec); !bytes.Equal(got, want.b) {
			t.Fatal("MarshalDec differs from the reference encoding")
		}
	}
}

// countingWriter counts Write calls: one frame must be one Write.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestWriteMessageOneWritePerFrame(t *testing.T) {
	msgs := []Message{packedSum(6, 40), packedDec(6, 4, 40), DissMsg{ID: 9, Vec: []float64{1, 2}}, Fin{}, Raw{1, 2, 3}}
	for i, m := range msgs {
		payload := m.AppendWire(nil)
		if m.WireSize() != len(payload) {
			t.Fatalf("message %d: WireSize %d, encoding %d bytes", i, m.WireSize(), len(payload))
		}
		for _, target := range []int{-1, 0, 12} {
			var w countingWriter
			n, err := WriteMessage(&w, KindDecResp, 77, target, m)
			if err != nil {
				t.Fatal(err)
			}
			if w.writes != 1 || n != w.Len() || n != FrameWireSize(target, len(payload)) {
				t.Fatalf("message %d target %d: %d writes, reported %d bytes, wrote %d", i, target, w.writes, n, w.Len())
			}
			var ref bytes.Buffer
			if err := WriteFrameTarget(&ref, KindDecResp, 77, target, payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), ref.Bytes()) {
				t.Fatalf("message %d target %d: frame differs from header+payload", i, target)
			}
		}
	}
}

// TestMarshalOneAllocation pins the presized encoders: the exactly
// sized result is the only allocation, whatever the vector length.
func TestMarshalOneAllocation(t *testing.T) {
	for _, dim := range []int{8, 80} {
		dec, sum := packedDec(dim, 4, 256), packedSum(dim, 256)
		if a := testing.AllocsPerRun(20, func() { MarshalDec(dec) }); a != 1 {
			t.Errorf("MarshalDec at dim %d: %v allocations, want 1", dim, a)
		}
		if a := testing.AllocsPerRun(20, func() { MarshalSum(sum) }); a != 1 {
			t.Errorf("MarshalSum at dim %d: %v allocations, want 1", dim, a)
		}
	}
}

// TestUnmarshalAllocationsFlat pins the slab decoders: allocations per
// message do not grow with the vector length.
func TestUnmarshalAllocationsFlat(t *testing.T) {
	allocs := func(dim int) (dec, sum float64) {
		lim := NewLimits(256, dim, 4, 16)
		decB, sumB := MarshalDec(packedDec(dim, 4, 256)), MarshalSum(packedSum(dim, 256))
		dec = testing.AllocsPerRun(20, func() {
			if _, err := UnmarshalDec(decB, lim); err != nil {
				t.Fatal(err)
			}
		})
		sum = testing.AllocsPerRun(20, func() {
			if _, err := UnmarshalSum(sumB, lim); err != nil {
				t.Fatal(err)
			}
		})
		return dec, sum
	}
	dec8, sum8 := allocs(8)
	dec80, sum80 := allocs(80)
	if dec8 != dec80 || sum8 != sum80 {
		t.Fatalf("allocations grow with dim: dec %v -> %v, sum %v -> %v", dec8, dec80, sum8, sum80)
	}
}

// BenchmarkDecCodec is the wireproto rung of the benchmark ladder: one
// packed decryption-response frame (16 ciphertexts of a 1024-bit
// Damgård–Jurik key, τ = 4) encoded into a frame, read back and decoded.
func BenchmarkDecCodec(b *testing.B) {
	const dim, tau, ctBytes = 16, 4, 256
	m := packedDec(dim, tau, ctBytes)
	lim := NewLimits(ctBytes, dim, tau, 16)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := WriteMessage(&buf, KindDecResp, 1, 5, m); err != nil {
			b.Fatal(err)
		}
		f, err := ReadFrame(&buf, lim.MaxFrameLen)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := UnmarshalDec(f.Payload, lim); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(FrameWireSize(5, m.WireSize())), "wirebytes/op")
}
