package wireproto

import (
	"errors"
	"fmt"
	"math/big"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
)

// ExchangeHdr tags every exchange-phase message with its scheduled
// slot, which is how peers running the deterministic schedule pair up
// requests with the exchange they are waiting for: iteration, gossip
// cycle within the phase, index within the cycle's schedule, and the
// population indices of both sides.
type ExchangeHdr struct {
	Iter  uint32
	Cycle uint32
	Seq   uint32
	From  uint32
	To    uint32
	Flags byte
}

// FlagAbort on a fin leg tells the responder its half of the exchange
// is lost — the initiator applied its update, the responder must not.
// Modeled mid-exchange churn sends it explicitly; a genuine crash
// produces the same half-completed outcome via the fin timeout.
const FlagAbort byte = 0x01

// hdrBytes is ExchangeHdr's encoded size.
const hdrBytes = 5*4 + 1

func (h ExchangeHdr) encode(e *enc) {
	e.u32(h.Iter)
	e.u32(h.Cycle)
	e.u32(h.Seq)
	e.u32(h.From)
	e.u32(h.To)
	e.u8(h.Flags)
}

func decodeHdr(d *dec) ExchangeHdr {
	return ExchangeHdr{
		Iter:  d.u32(),
		Cycle: d.u32(),
		Seq:   d.u32(),
		From:  d.u32(),
		To:    d.u32(),
		Flags: d.u8(),
	}
}

// PeekHdr decodes just the leading ExchangeHdr of an exchange payload,
// letting a listener route a request to its scheduled slot without
// paying for the full (possibly large) message decode.
func PeekHdr(data []byte) (ExchangeHdr, error) {
	d := dec{b: data}
	h := decodeHdr(&d)
	if d.err != nil {
		return ExchangeHdr{}, d.err
	}
	return h, nil
}

// Message is a payload that knows its exact encoded size and appends
// its encoding to a buffer — what lets WriteMessage build a whole frame
// in one allocation, header in front of the payload, and the Marshal
// functions allocate exactly once (their exactly-sized result).
type Message interface {
	WireSize() int
	AppendWire(dst []byte) []byte
}

// Raw is an already-encoded payload (the membership messages) as a
// Message.
type Raw []byte

// WireSize implements Message.
func (r Raw) WireSize() int { return len(r) }

// AppendWire implements Message.
func (r Raw) AppendWire(dst []byte) []byte { return append(dst, r...) }

// --- membership ---

// Hello is a joiner's first message to any known peer: its population
// index, listen address, the population size it was provisioned for,
// and a digest of its shared protocol parameters. A receiver whose own
// digest differs answers KindReject instead of a roster — the two
// daemons were provisioned inconsistently (different -k, -pack-slots,
// -frac-bits, …) and would diverge silently mid-run otherwise. A zero
// digest is never checked (pre-digest peers).
type Hello struct {
	Index  uint32
	Addr   string
	N      uint32
	Digest uint64
}

// MarshalHello encodes a Hello payload.
func MarshalHello(h Hello) []byte {
	var e enc
	e.u32(h.Index)
	e.str(h.Addr)
	e.u32(h.N)
	e.u64(h.Digest)
	return e.bytes()
}

// UnmarshalHello decodes a Hello payload.
func UnmarshalHello(data []byte, lim Limits) (Hello, error) {
	d := dec{b: data}
	h := Hello{Index: d.u32()}
	h.Addr = d.str(lim.MaxAddrLen)
	h.N = d.u32()
	h.Digest = d.u64()
	return h, d.done()
}

// Resume is a restarted peer's re-announcement: the Hello identity
// fields plus the protocol position its journal replayed to (the last
// committed slot; zero position for a peer that crashed before any
// commit). Receivers validate it exactly like a Hello — same digest
// refusal — then reinstate the peer (suspicion strikes and eviction
// overlays cleared, address relearned) instead of treating it as new.
type Resume struct {
	Index  uint32
	Addr   string
	N      uint32
	Digest uint64
	Iter   uint32
	Phase  uint32
	Cycle  uint32
	Seq    uint32
}

// MarshalResume encodes a Resume payload (KindResume).
func MarshalResume(r Resume) []byte {
	var e enc
	e.u32(r.Index)
	e.str(r.Addr)
	e.u32(r.N)
	e.u64(r.Digest)
	e.u32(r.Iter)
	e.u32(r.Phase)
	e.u32(r.Cycle)
	e.u32(r.Seq)
	return e.bytes()
}

// UnmarshalResume decodes a Resume payload.
func UnmarshalResume(data []byte, lim Limits) (Resume, error) {
	d := dec{b: data}
	r := Resume{Index: d.u32()}
	r.Addr = d.str(lim.MaxAddrLen)
	r.N = d.u32()
	r.Digest = d.u64()
	r.Iter = d.u32()
	r.Phase = d.u32()
	r.Cycle = d.u32()
	r.Seq = d.u32()
	return r, d.done()
}

// Reject is a handshake refusal with a human-readable reason, sent in
// place of a HelloAck when the peers' provisioning disagrees.
type Reject struct {
	Reason string
}

// maxRejectReason bounds the reason string independently of Limits: the
// refusal travels before the peers agree on anything.
const maxRejectReason = 256

// MarshalReject encodes a Reject payload, truncating oversize reasons.
func MarshalReject(r Reject) []byte {
	if len(r.Reason) > maxRejectReason {
		r.Reason = r.Reason[:maxRejectReason]
	}
	var e enc
	e.str(r.Reason)
	return e.bytes()
}

// UnmarshalReject decodes a Reject payload.
func UnmarshalReject(data []byte) (Reject, error) {
	d := dec{b: data}
	r := Reject{Reason: d.str(maxRejectReason)}
	return r, d.done()
}

// ViewItem is one serializable Newscast news item: who (population
// index and dialable address) and how fresh. It is the wire form of a
// newscast.Item extended with the address a real deployment needs.
type ViewItem struct {
	Index     uint32
	Addr      string
	Heartbeat int64
}

// MarshalView encodes a view exchange (or HelloAck roster) payload.
func MarshalView(items []ViewItem) []byte {
	var e enc
	e.u32(uint32(len(items)))
	for _, it := range items {
		e.u32(it.Index)
		e.str(it.Addr)
		e.u64(uint64(it.Heartbeat))
	}
	return e.bytes()
}

// UnmarshalView decodes a view payload, bounded by lim.MaxPeers.
func UnmarshalView(data []byte, lim Limits) ([]ViewItem, error) {
	d := dec{b: data}
	n := int(d.u32())
	if d.err == nil && n > lim.MaxPeers {
		return nil, fmt.Errorf("wireproto: view of %d items exceeds bound %d", n, lim.MaxPeers)
	}
	items := make([]ViewItem, 0, minInt(n, len(data)/7+1))
	for i := 0; i < n; i++ {
		it := ViewItem{Index: d.u32()}
		it.Addr = d.str(lim.MaxAddrLen)
		it.Heartbeat = int64(d.u64())
		if d.err != nil {
			break
		}
		items = append(items, it)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return items, nil
}

// Leave is a graceful departure notice.
type Leave struct {
	Index uint32
}

// MarshalLeave encodes a Leave payload.
func MarshalLeave(l Leave) []byte {
	var e enc
	e.u32(l.Index)
	return e.bytes()
}

// UnmarshalLeave decodes a Leave payload.
func UnmarshalLeave(data []byte) (Leave, error) {
	d := dec{b: data}
	l := Leave{Index: d.u32()}
	return l, d.done()
}

// --- encrypted sum phase ---

// SumMsg carries one side's full sum-phase state: the encrypted means
// EESum state, the encrypted noise EESum state running in lockstep, and
// the cleartext participant counter piggybacking on the same exchange.
type SumMsg struct {
	Hdr      ExchangeHdr
	Means    eesum.SumState
	Noise    eesum.SumState
	CtrSigma float64
	CtrOmega float64
}

func sumStateSize(st eesum.SumState) int {
	return 4 + ctsSize(st.CTs) + homenc.IntWireSize(st.Omega) + 4
}

func encodeSumState(e *enc, st eesum.SumState) {
	e.cts(st.CTs)
	e.bigInt(st.Omega)
	e.u32(uint32(st.Epoch))
}

func decodeSumState(d *dec, lim Limits) eesum.SumState {
	n := int(d.u32())
	if d.err == nil && n > lim.MaxDim {
		d.fail("sum state dimension exceeds bound")
		return eesum.SumState{}
	}
	st := eesum.SumState{CTs: d.cts(n, lim.MaxCTBytes)}
	st.Omega = d.bigInt(lim.MaxCTBytes)
	st.Epoch = int(d.u32())
	return st
}

// WireSize implements Message.
func (m SumMsg) WireSize() int {
	return hdrBytes + sumStateSize(m.Means) + sumStateSize(m.Noise) + 8 + 8
}

// AppendWire implements Message.
func (m SumMsg) AppendWire(dst []byte) []byte {
	e := enc{b: dst}
	m.Hdr.encode(&e)
	encodeSumState(&e, m.Means)
	encodeSumState(&e, m.Noise)
	e.f64(m.CtrSigma)
	e.f64(m.CtrOmega)
	return e.bytes()
}

// MarshalSum encodes a SumMsg payload (KindSumReq and KindSumResp).
func MarshalSum(m SumMsg) []byte { return m.AppendWire(make([]byte, 0, m.WireSize())) }

// UnmarshalSum decodes a SumMsg payload.
func UnmarshalSum(data []byte, lim Limits) (SumMsg, error) {
	d := dec{b: data}
	m := SumMsg{Hdr: decodeHdr(&d)}
	m.Means = decodeSumState(&d, lim)
	m.Noise = decodeSumState(&d, lim)
	m.CtrSigma = d.f64()
	m.CtrOmega = d.f64()
	return m, d.done()
}

// Fin is the bare commit leg closing a sum or dissemination exchange:
// the responder applies its half only when it arrives, which is what
// reproduces the half-completed exchange of Section 6.1.5 when the
// initiator (or the link) dies in between.
type Fin struct {
	Hdr ExchangeHdr
}

// WireSize implements Message.
func (f Fin) WireSize() int { return hdrBytes }

// AppendWire implements Message.
func (f Fin) AppendWire(dst []byte) []byte {
	e := enc{b: dst}
	f.Hdr.encode(&e)
	return e.bytes()
}

// MarshalFin encodes a Fin payload (KindSumFin, KindDissFin).
func MarshalFin(f Fin) []byte { return f.AppendWire(make([]byte, 0, f.WireSize())) }

// UnmarshalFin decodes a Fin payload.
func UnmarshalFin(data []byte) (Fin, error) {
	d := dec{b: data}
	f := Fin{Hdr: decodeHdr(&d)}
	return f, d.done()
}

// --- noise-correction dissemination ---

// DissMsg carries one side's correction proposal: the random identifier
// and the surplus correction vector (min identifier wins, Section
// 4.2.2).
type DissMsg struct {
	Hdr ExchangeHdr
	ID  uint64
	Vec []float64
}

// WireSize implements Message.
func (m DissMsg) WireSize() int { return hdrBytes + 8 + 4 + 8*len(m.Vec) }

// AppendWire implements Message.
func (m DissMsg) AppendWire(dst []byte) []byte {
	e := enc{b: dst}
	m.Hdr.encode(&e)
	e.u64(m.ID)
	e.u32(uint32(len(m.Vec)))
	for _, v := range m.Vec {
		e.f64(v)
	}
	return e.bytes()
}

// MarshalDiss encodes a DissMsg payload (KindDissReq, KindDissResp).
func MarshalDiss(m DissMsg) []byte { return m.AppendWire(make([]byte, 0, m.WireSize())) }

// UnmarshalDiss decodes a DissMsg payload.
func UnmarshalDiss(data []byte, lim Limits) (DissMsg, error) {
	d := dec{b: data}
	m := DissMsg{Hdr: decodeHdr(&d), ID: d.u64()}
	n := int(d.u32())
	if d.err == nil && n > lim.MaxDim {
		return m, fmt.Errorf("wireproto: correction vector of %d exceeds bound %d", n, lim.MaxDim)
	}
	m.Vec = make([]float64, 0, minInt(n, len(d.b)/8+1))
	for i := 0; i < n && d.err == nil; i++ {
		m.Vec = append(m.Vec, d.f64())
	}
	return m, d.done()
}

// --- epidemic decryption ---

// DecMsg carries one side's epidemic decryption state — the ciphertext
// vector it is decrypting, the weight that decodes it, and the partial
// decryptions gathered so far — plus, on the response and fin legs,
// the sender's own key-share applied to the receiver's (post-adoption)
// ciphertexts. Fresh is empty on KindDecReq; CTs/Omega/Parts are empty
// on KindDecFin.
type DecMsg struct {
	Hdr   ExchangeHdr
	CTs   []homenc.Ciphertext
	Omega *big.Int
	Parts map[int][]homenc.PartialDecryption
	Fresh []homenc.PartialDecryption
}

func partialsSize(ps []homenc.PartialDecryption) int {
	size := 4
	for _, p := range ps {
		size += 4 + homenc.IntWireSize(p.V)
	}
	return size
}

func encodePartials(e *enc, ps []homenc.PartialDecryption) {
	e.u32(uint32(len(ps)))
	for _, p := range ps {
		e.u32(uint32(p.Index))
		e.bigInt(p.V)
	}
}

func decodePartials(d *dec, lim Limits) []homenc.PartialDecryption {
	n := int(d.u32())
	if d.err == nil && n > lim.MaxDim+1 {
		d.fail("partials vector exceeds bound")
		return nil
	}
	if d.err != nil {
		return nil
	}
	ps, rest, err := homenc.UnmarshalPartialsBound(d.b, n, lim.MaxCTBytes)
	if err != nil {
		d.err = err
		return nil
	}
	d.b = rest
	return ps
}

// zero encodes a DecMsg's absent Omega.
var zero big.Int

func (m DecMsg) omega() *big.Int {
	if m.Omega == nil {
		return &zero
	}
	return m.Omega
}

// WireSize implements Message.
func (m DecMsg) WireSize() int {
	size := hdrBytes + 4 + ctsSize(m.CTs) + homenc.IntWireSize(m.omega()) + 2
	for _, ps := range m.Parts {
		size += 4 + partialsSize(ps)
	}
	return size + partialsSize(m.Fresh)
}

// AppendWire implements Message.
func (m DecMsg) AppendWire(dst []byte) []byte {
	e := enc{b: dst}
	m.Hdr.encode(&e)
	e.cts(m.CTs)
	e.bigInt(m.omega())
	e.u16(uint16(len(m.Parts)))
	// Canonical share-index order: encoding must not depend on map
	// iteration order (peers compare and hash frames in tests). The
	// share sets number at most τ, so the keys sort in a stack buffer.
	var stack [16]int
	idxs := stack[:0]
	for idx := range m.Parts {
		idxs = append(idxs, idx)
	}
	sortInts(idxs)
	for _, idx := range idxs {
		e.u32(uint32(idx))
		encodePartials(&e, m.Parts[idx])
	}
	encodePartials(&e, m.Fresh)
	return e.bytes()
}

// MarshalDec encodes a DecMsg payload (KindDecReq, KindDecResp,
// KindDecFin).
func MarshalDec(m DecMsg) []byte { return m.AppendWire(make([]byte, 0, m.WireSize())) }

// UnmarshalDec decodes a DecMsg payload.
func UnmarshalDec(data []byte, lim Limits) (DecMsg, error) {
	d := dec{b: data}
	m := DecMsg{Hdr: decodeHdr(&d)}
	n := int(d.u32())
	if d.err == nil && n > lim.MaxDim {
		return m, fmt.Errorf("wireproto: ciphertext vector of %d exceeds bound %d", n, lim.MaxDim)
	}
	m.CTs = d.cts(n, lim.MaxCTBytes)
	m.Omega = d.bigInt(lim.MaxCTBytes)
	nParts := int(d.u16())
	if d.err == nil && nParts > lim.MaxParts {
		return m, fmt.Errorf("wireproto: %d partial sets exceed bound %d", nParts, lim.MaxParts)
	}
	m.Parts = make(map[int][]homenc.PartialDecryption, nParts)
	for i := 0; i < nParts && d.err == nil; i++ {
		idx := int(d.u32())
		ps := decodePartials(&d, lim)
		if d.err == nil {
			if _, dup := m.Parts[idx]; dup {
				return m, errors.New("wireproto: duplicate partial share index")
			}
			m.Parts[idx] = ps
		}
	}
	m.Fresh = decodePartials(&d, lim)
	return m, d.done()
}

func ctsSize(cts []homenc.Ciphertext) int {
	size := 0
	for _, ct := range cts {
		size += homenc.IntWireSize(ct.V)
	}
	return size
}

// bigInt appends one homenc canonical integer.
func (e *enc) bigInt(v *big.Int) { e.b = homenc.AppendInt(e.b, v) }

// cts appends a count-prefixed ciphertext vector.
func (e *enc) cts(cts []homenc.Ciphertext) {
	e.u32(uint32(len(cts)))
	for _, ct := range cts {
		e.bigInt(ct.V)
	}
}

// bigInt consumes one homenc canonical integer from the cursor.
func (d *dec) bigInt(maxBytes int) *big.Int {
	if d.err != nil {
		return nil
	}
	v, rest, err := homenc.UnmarshalIntBound(d.b, maxBytes)
	if err != nil {
		d.err = err
		return nil
	}
	d.b = rest
	return v
}

// cts consumes n canonical integers as a ciphertext vector backed by
// exact-size slabs (one []big.Int, one []big.Word), so a kept vector
// pins only its own bytes, not the frame it arrived in.
func (d *dec) cts(n, maxBytes int) []homenc.Ciphertext {
	if d.err != nil {
		return nil
	}
	ints, rest, err := homenc.UnmarshalIntsBound(d.b, n, maxBytes)
	if err != nil {
		d.err = err
		return nil
	}
	d.b = rest
	cts := make([]homenc.Ciphertext, n)
	for i := range cts {
		cts[i].V = &ints[i]
	}
	return cts
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func sortInts(v []int) {
	// Insertion sort: share-index sets are tiny (≤ τ).
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
