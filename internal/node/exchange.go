package node

import (
	"errors"
	"fmt"
	"math/big"
	"net"
	"time"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/wireproto"
)

// iterState is the participant's live protocol state for one iteration:
// the two lockstep EESum states, the cleartext counter, the correction
// proposal, and the decryption state. Only the exchange currently being
// processed by the main loop touches it, so no locking is needed.
type iterState struct {
	means eesum.SumState
	noise eesum.SumState
	ctrS  float64
	ctrW  float64

	corID  uint64
	corVec []float64

	decCTs   []homenc.Ciphertext
	decOmega *big.Int
	decParts map[int][]homenc.PartialDecryption
}

// hdrFor stamps an exchange header for a scheduled slot.
func (nd *Node) hdrFor(s slot, to int) wireproto.ExchangeHdr {
	return wireproto.ExchangeHdr{
		Iter:  uint32(s.iter),
		Cycle: uint32(s.cycle),
		Seq:   uint32(s.seq),
		From:  uint32(nd.cfg.Index),
		To:    uint32(to),
	}
}

// tryOutcome classifies one attempt at an exchange slot. The taxonomy
// is what makes retries safe: only tryRetry — a failure strictly before
// this side's state merge — may run the attempt again. Once a side has
// merged (tryCommitted) its half is applied exactly once, so a chaos
// run with the same completed-exchange trace stays bit-identical to the
// simulator.
type tryOutcome int

const (
	// tryCommitted: this side's merge was applied. Terminal; the slot
	// is never re-attempted, whatever happens to the commit leg after.
	tryCommitted tryOutcome = iota
	// tryRetry: a transient connection failure strictly before this
	// side's merge (dial, request write, response read, fin loss). No
	// state changed, so the identical attempt may run again.
	tryRetry
	// tryReject: the peer sent invalid protocol data. Terminal —
	// retrying a hostile peer re-downloads the same garbage.
	tryReject
	// tryAbandon: terminal without a usable connection (no address for
	// the peer). Counts as a timeout, is never retried.
	tryAbandon
	// tryHalf: the slot deliberately ends half-completed — a crash-hook
	// firing on this side's send, or modeled churn's abort flag. No
	// counter: this is the paper's Section 6.1.5 outcome, not an error.
	tryHalf
	// tryFinLost (responder only): the commit leg never arrived. Almost
	// always the initiator committed and died (or its fin was cut) — a
	// half-completed exchange — but it may also have failed reading the
	// response pre-merge, in which case its redial is already in
	// flight. The responder re-awaits only a short, backoff-sized
	// window instead of the slot's full deadline.
	tryFinLost
)

// crashes consults the crash hook for one of this node's send legs.
func (nd *Node) crashes(leg int, s slot) bool {
	return nd.crashHook != nil && nd.crashHook(leg, s.phase, s.iter, s.cycle, s.seq)
}

// initiateWith drives one initiator slot under the fault policy: run
// attempts until one commits, a terminal outcome lands, or the retry
// budget is spent, backing off between attempts with capped jitter.
// Suspicion strikes are charged to the peer on terminal failures and
// cleared on commit.
func (nd *Node) initiateWith(peer int, s slot, try func() tryOutcome) {
	for attempt := 0; ; attempt++ {
		switch try() {
		case tryCommitted:
			nd.peerOK(peer)
			return
		case tryReject:
			nd.counters.Rejected.Add(1)
			nd.peerFailed(peer, s)
			return
		case tryAbandon:
			nd.counters.Timeouts.Add(1)
			nd.peerFailed(peer, s)
			return
		case tryHalf:
			return
		case tryRetry:
			if attempt >= nd.policy.MaxRetries {
				nd.counters.Timeouts.Add(1)
				nd.peerFailed(peer, s)
				return
			}
			nd.counters.Retries.Add(1)
			if !nd.sleep(backoffDelay(nd.jitter, nd.policy.Backoff, attempt, 8*nd.policy.Backoff)) {
				return // shutting down
			}
		}
	}
}

// respondWith drives one responder slot: await the request, serve it,
// and — when a pre-commit connection failure suggests the initiator
// failed before its own merge and will redial — re-await the slot
// within its absolute deadline. The serve callback commits at most
// once; every re-served attempt starts from the same untouched state,
// so the response bytes are identical across attempts. from is the
// scheduled initiator: when it is known-unreachable (crash-suspected or
// departed) the wait is cut short instead of burning the deadline —
// under a restart storm those abandoned waits, 50 slots × the full
// exchange timeout per storm, were the collapse from 227 to 1.45
// cycles/s the crash-storm soak measured.
func (nd *Node) respondWith(s slot, from int, serve func(in inbound) tryOutcome) {
	defer nd.reg.release(s)
	deadline := time.Now().Add(nd.cfg.ExchangeTimeout)
	wait := nd.cfg.ExchangeTimeout
	for attempt := 0; ; attempt++ {
		in, ok := nd.awaitSlot(s, from, minDur(wait, time.Until(deadline)))
		if !ok {
			nd.counters.Timeouts.Add(1)
			return
		}
		out := serve(in)
		_ = in.conn.Close()
		switch out {
		case tryCommitted, tryHalf:
			return
		case tryReject:
			nd.counters.Rejected.Add(1)
			return
		case tryAbandon:
			nd.counters.Timeouts.Add(1)
			return
		case tryRetry, tryFinLost:
			if attempt >= nd.policy.MaxRetries || !time.Now().Before(deadline) {
				nd.counters.Timeouts.Add(1)
				return
			}
			nd.counters.Retries.Add(1)
			if out == tryFinLost {
				// Wait only for a redial already in flight: one backoff
				// envelope, not the slot's whole deadline — the far more
				// likely reading of a lost fin is an initiator that
				// committed and died, and nobody redials a committed slot.
				wait = 8*nd.policy.Backoff + 250*time.Millisecond
			} else {
				wait = nd.cfg.ExchangeTimeout
			}
		}
	}
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// suspicionPoll is how often a waiting responder re-checks whether the
// initiator it awaits became unreachable.
const suspicionPoll = 250 * time.Millisecond

// awaitSlot is registry.await sliced into short waits so the responder
// can release a slot early once its scheduled initiator is known to be
// unreachable. The early exit still performs one final zero-timeout
// poll — a request parked in the race window is served, and the caller
// counts exactly one timeout either way, keeping counter totals
// identical to a full-deadline wait. The check only ever fires for
// peers the suspicion policy evicted or the book marked gone, so runs
// without suspicion (every deterministic replay test) behave exactly as
// before.
func (nd *Node) awaitSlot(s slot, from int, timeout time.Duration) (inbound, bool) {
	deadline := time.Now().Add(timeout)
	for {
		slice := minDur(suspicionPoll, time.Until(deadline))
		if slice <= 0 {
			return nd.reg.await(s, 0)
		}
		if in, ok := nd.reg.await(s, slice); ok {
			return in, true
		}
		if nd.stopped.Load() {
			return inbound{}, false
		}
		if nd.peerUnreachable(from) {
			return nd.reg.await(s, 0)
		}
	}
}

// dialOutcome classifies a dial error for the retry loop.
func dialOutcome(err error) tryOutcome {
	if errors.Is(err, errNoAddress) {
		return tryAbandon // fast-fail: retrying cannot conjure an address
	}
	return tryRetry
}

// sendFin emits the commit leg unless the crash hook kills the exchange
// here. Modeled mid-exchange churn (full=false in the schedule) sends
// an explicit abort so the responder resolves instantly; the slow path
// — saying nothing and letting the responder's fin timeout fire — is
// what a genuine crash produces, with the identical half-completed
// outcome.
func (nd *Node) sendFin(conn net.Conn, kind byte, hdr wireproto.ExchangeHdr, s slot, full bool, payload func(wireproto.ExchangeHdr) wireproto.Message) {
	if nd.crashes(LegFin, s) {
		return // simulated crash between the merge and FIN
	}
	if !full {
		hdr.Flags |= wireproto.FlagAbort
	}
	_ = nd.writeFrameTo(conn, kind, -1, payload(hdr))
}

// --- sum phase (encrypted means + noise lockstep + counter) ---

func (nd *Node) initiateSum(st *iterState, peer int, s slot, full bool) {
	nd.initiateWith(peer, s, func() tryOutcome {
		conn, err := nd.dial(peer)
		if err != nil {
			return dialOutcome(err)
		}
		defer conn.Close()
		if nd.crashes(LegReq, s) {
			return tryHalf
		}
		hdr := nd.hdrFor(s, peer)
		req := wireproto.SumMsg{Hdr: hdr, Means: st.means, Noise: st.noise, CtrSigma: st.ctrS, CtrOmega: st.ctrW}
		// Request legs carry the destination index so a multiplexed
		// listener can route them; later legs ride the routed connection.
		if err := nd.writeFrameTo(conn, wireproto.KindSumReq, peer, req); err != nil {
			return tryRetry
		}
		f, err := nd.readFrame(conn)
		if err != nil || f.Kind != wireproto.KindSumResp {
			return tryRetry
		}
		resp, err := wireproto.UnmarshalSum(f.Payload, nd.lim)
		if err != nil || !nd.validSumState(resp.Means, len(st.means.CTs)) || !nd.validSumState(resp.Noise, len(st.noise.CTs)) {
			return tryReject
		}
		// Initiator half: the commit point. Applied exactly once — no
		// failure after this line is ever retried (the sim's
		// Exchange(a, b, *) a-side).
		st.means = eesum.MergeSum(nd.cfg.Scheme, st.means, resp.Means, nd.dimWk)
		st.noise = eesum.MergeSum(nd.cfg.Scheme, st.noise, resp.Noise, nd.dimWk)
		st.ctrS, st.ctrW = (st.ctrS+resp.CtrSigma)/2, (st.ctrW+resp.CtrOmega)/2
		nd.counters.Initiated.Add(1)
		nd.journalCommit(s, st, true)
		nd.sendFin(conn, wireproto.KindSumFin, hdr, s, full, func(h wireproto.ExchangeHdr) wireproto.Message {
			return wireproto.Fin{Hdr: h}
		})
		return tryCommitted
	})
}

func (nd *Node) respondSum(st *iterState, s slot, from int) {
	nd.respondWith(s, from, func(in inbound) tryOutcome {
		req, err := wireproto.UnmarshalSum(in.frame.Payload, nd.lim)
		if err != nil || int(req.Hdr.From) != from ||
			!nd.validSumState(req.Means, len(st.means.CTs)) || !nd.validSumState(req.Noise, len(st.noise.CTs)) {
			return tryReject
		}
		if nd.crashes(LegResp, s) {
			return tryHalf
		}
		resp := wireproto.SumMsg{Hdr: req.Hdr, Means: st.means, Noise: st.noise, CtrSigma: st.ctrS, CtrOmega: st.ctrW}
		if err := nd.writeFrameTo(in.conn, wireproto.KindSumResp, -1, resp); err != nil {
			return tryRetry
		}
		fin, out := nd.awaitFin(in.conn, wireproto.KindSumFin)
		if out != tryCommitted {
			return out
		}
		if fin.Flags&wireproto.FlagAbort != 0 {
			return tryHalf // modeled mid-exchange churn
		}
		// Responder half (the sim's Exchange b-side under full=true); the
		// merge arguments keep (initiator, responder) order on both sides.
		st.means = eesum.MergeSum(nd.cfg.Scheme, req.Means, st.means, nd.dimWk)
		st.noise = eesum.MergeSum(nd.cfg.Scheme, req.Noise, st.noise, nd.dimWk)
		st.ctrS, st.ctrW = (req.CtrSigma+st.ctrS)/2, (req.CtrOmega+st.ctrW)/2
		nd.counters.Responded.Add(1)
		nd.journalCommit(s, st, false)
		return tryCommitted
	})
}

// awaitFin reads the commit leg with the fin deadline. A clean read
// returns tryCommitted; a lost or mistyped fin returns tryFinLost; a
// fin that arrived but does not decode is a tryReject.
func (nd *Node) awaitFin(conn net.Conn, wantKind byte) (wireproto.ExchangeHdr, tryOutcome) {
	_ = conn.SetReadDeadline(time.Now().Add(nd.cfg.FinTimeout))
	f, err := nd.readFrame(conn)
	if err != nil || f.Kind != wantKind {
		return wireproto.ExchangeHdr{}, tryFinLost
	}
	hdr, err := wireproto.PeekHdr(f.Payload)
	if err != nil {
		return wireproto.ExchangeHdr{}, tryReject
	}
	return hdr, tryCommitted
}

// --- correction dissemination phase ---

func (nd *Node) initiateDiss(st *iterState, peer int, s slot, full bool) {
	nd.initiateWith(peer, s, func() tryOutcome {
		conn, err := nd.dial(peer)
		if err != nil {
			return dialOutcome(err)
		}
		defer conn.Close()
		if nd.crashes(LegReq, s) {
			return tryHalf
		}
		hdr := nd.hdrFor(s, peer)
		req := wireproto.DissMsg{Hdr: hdr, ID: st.corID, Vec: st.corVec}
		if err := nd.writeFrameTo(conn, wireproto.KindDissReq, peer, req); err != nil {
			return tryRetry
		}
		f, err := nd.readFrame(conn)
		if err != nil || f.Kind != wireproto.KindDissResp {
			return tryRetry
		}
		resp, err := wireproto.UnmarshalDiss(f.Payload, nd.lim)
		if err != nil || len(resp.Vec) != len(st.corVec) {
			return tryReject
		}
		// Commit point.
		if resp.ID < st.corID {
			st.corID, st.corVec = resp.ID, resp.Vec
		}
		nd.counters.Initiated.Add(1)
		nd.journalCommit(s, st, true)
		nd.sendFin(conn, wireproto.KindDissFin, hdr, s, full, func(h wireproto.ExchangeHdr) wireproto.Message {
			return wireproto.Fin{Hdr: h}
		})
		return tryCommitted
	})
}

func (nd *Node) respondDiss(st *iterState, s slot, from int) {
	nd.respondWith(s, from, func(in inbound) tryOutcome {
		req, err := wireproto.UnmarshalDiss(in.frame.Payload, nd.lim)
		if err != nil || int(req.Hdr.From) != from || len(req.Vec) != len(st.corVec) {
			return tryReject
		}
		if nd.crashes(LegResp, s) {
			return tryHalf
		}
		resp := wireproto.DissMsg{Hdr: req.Hdr, ID: st.corID, Vec: st.corVec}
		if err := nd.writeFrameTo(in.conn, wireproto.KindDissResp, -1, resp); err != nil {
			return tryRetry
		}
		fin, out := nd.awaitFin(in.conn, wireproto.KindDissFin)
		if out != tryCommitted {
			return out
		}
		if fin.Flags&wireproto.FlagAbort != 0 {
			return tryHalf
		}
		if req.ID < st.corID {
			st.corID, st.corVec = req.ID, req.Vec
		}
		nd.counters.Responded.Add(1)
		nd.journalCommit(s, st, false)
		return tryCommitted
	})
}

// --- epidemic decryption phase ---

func (nd *Node) initiateDec(st *iterState, peer int, s slot, full bool) {
	nd.initiateWith(peer, s, func() tryOutcome {
		conn, err := nd.dial(peer)
		if err != nil {
			return dialOutcome(err)
		}
		defer conn.Close()
		if nd.crashes(LegReq, s) {
			return tryHalf
		}
		hdr := nd.hdrFor(s, peer)
		req := wireproto.DecMsg{Hdr: hdr, CTs: st.decCTs, Omega: st.decOmega, Parts: st.decParts}
		if err := nd.writeFrameTo(conn, wireproto.KindDecReq, peer, req); err != nil {
			return tryRetry
		}
		f, err := nd.readFrame(conn)
		if err != nil || f.Kind != wireproto.KindDecResp {
			return tryRetry
		}
		resp, err := wireproto.UnmarshalDec(f.Payload, nd.lim)
		if err != nil || !validDecState(resp, len(st.decCTs), nd.cfg.Scheme.NumShares()) {
			return tryReject
		}
		tau := nd.cfg.Scheme.Threshold()
		peerShare := peer + 1

		// Everything below mirrors the sim's Exchange(a, b, full) with this
		// node as a. Adoption decisions and the fin-leg partials depend only
		// on pre-exchange states, so compute them before mutating anything.
		aAdopts := eesum.DecAdopts(len(st.decParts), len(resp.Parts))
		peerAdopts := eesum.DecAdopts(len(resp.Parts), len(st.decParts))

		// FIN payload: this side's key-share applied to the responder's
		// post-adoption ciphertexts (the sim's apply(b, a); adoption copies
		// pre-exchange state, so pre-state is the right input).
		var freshForPeer []homenc.PartialDecryption
		if full {
			peerPostCTs, peerPostParts := resp.CTs, resp.Parts
			if peerAdopts {
				peerPostCTs, peerPostParts = st.decCTs, st.decParts
			}
			if eesum.DecNeeds(peerPostParts, tau, nd.share) {
				if ps, err := eesum.DecPartials(nd.cfg.Scheme, nd.share, peerPostCTs, nd.dimWk); err == nil {
					freshForPeer = ps
				}
			}
		}

		// a-side transition (adopt, apply(a,b), apply(a,a)): the commit
		// point — applied exactly once.
		if aAdopts {
			st.decCTs, st.decOmega = resp.CTs, resp.Omega
			st.decParts = eesum.CopyParts(resp.Parts, tau)
		}
		if len(resp.Fresh) > 0 && eesum.DecNeeds(st.decParts, tau, peerShare) {
			if ps, err := validPartials(resp.Fresh, peerShare, len(st.decCTs)); err == nil {
				st.decParts[peerShare] = ps
			} else {
				nd.counters.Rejected.Add(1)
			}
		}
		if eesum.DecNeeds(st.decParts, tau, nd.share) {
			if ps, err := eesum.DecPartials(nd.cfg.Scheme, nd.share, st.decCTs, nd.dimWk); err == nil {
				st.decParts[nd.share] = ps
			}
		}
		nd.counters.Initiated.Add(1)
		nd.journalCommit(s, st, true)

		nd.sendFin(conn, wireproto.KindDecFin, hdr, s, full, func(h wireproto.ExchangeHdr) wireproto.Message {
			return wireproto.DecMsg{Hdr: h, Fresh: freshForPeer}
		})
		return tryCommitted
	})
}

func (nd *Node) respondDec(st *iterState, s slot, from int) {
	nd.respondWith(s, from, func(in inbound) tryOutcome {
		req, err := wireproto.UnmarshalDec(in.frame.Payload, nd.lim)
		if err != nil || int(req.Hdr.From) != from || !validDecState(req, len(st.decCTs), nd.cfg.Scheme.NumShares()) {
			return tryReject
		}
		if nd.crashes(LegResp, s) {
			return tryHalf
		}
		tau := nd.cfg.Scheme.Threshold()
		myPartsPre, reqParts := len(st.decParts), len(req.Parts)

		// This side's key-share over the initiator's post-adoption
		// ciphertexts (the sim's apply(a, b)), computed before any commit.
		reqAdopts := eesum.DecAdopts(reqParts, myPartsPre)
		initPostCTs, initPostParts := req.CTs, req.Parts
		if reqAdopts {
			initPostCTs = st.decCTs
			initPostParts = st.decParts
		}
		var fresh []homenc.PartialDecryption
		if eesum.DecNeeds(initPostParts, tau, nd.share) {
			if ps, err := eesum.DecPartials(nd.cfg.Scheme, nd.share, initPostCTs, nd.dimWk); err == nil {
				fresh = ps
			}
		}
		resp := wireproto.DecMsg{Hdr: req.Hdr, CTs: st.decCTs, Omega: st.decOmega, Parts: st.decParts, Fresh: fresh}
		if err := nd.writeFrameTo(in.conn, wireproto.KindDecResp, -1, resp); err != nil {
			return tryRetry
		}
		_ = in.conn.SetReadDeadline(time.Now().Add(nd.cfg.FinTimeout))
		f, err := nd.readFrame(in.conn)
		if err != nil || f.Kind != wireproto.KindDecFin {
			return tryFinLost
		}
		fin, err := wireproto.UnmarshalDec(f.Payload, nd.lim)
		if err != nil {
			return tryReject
		}
		if fin.Hdr.Flags&wireproto.FlagAbort != 0 {
			return tryHalf
		}

		// b-side commit (sim's adopt(b,a), apply(b,a), apply(b,b)):
		// applied exactly once.
		if eesum.DecAdopts(myPartsPre, reqParts) {
			st.decCTs, st.decOmega = req.CTs, req.Omega
			st.decParts = eesum.CopyParts(req.Parts, tau)
		}
		fromShare := from + 1
		if len(fin.Fresh) > 0 && eesum.DecNeeds(st.decParts, tau, fromShare) {
			if ps, err := validPartials(fin.Fresh, fromShare, len(st.decCTs)); err == nil {
				st.decParts[fromShare] = ps
			} else {
				nd.counters.Rejected.Add(1)
			}
		}
		if eesum.DecNeeds(st.decParts, tau, nd.share) {
			if ps, err := eesum.DecPartials(nd.cfg.Scheme, nd.share, st.decCTs, nd.dimWk); err == nil {
				st.decParts[nd.share] = ps
			}
		}
		nd.counters.Responded.Add(1)
		nd.journalCommit(s, st, false)
		return tryCommitted
	})
}

// validPartials checks a fresh partial vector claims the expected share
// index on every element and covers the full vector.
func validPartials(ps []homenc.PartialDecryption, share, dim int) ([]homenc.PartialDecryption, error) {
	if len(ps) != dim {
		return nil, fmt.Errorf("node: %d partials for a %d-vector", len(ps), dim)
	}
	for _, p := range ps {
		if p.Index != share || p.V == nil {
			return nil, fmt.Errorf("node: partial claims share %d, want %d", p.Index, share)
		}
	}
	return ps, nil
}

// validDecState vets a peer's decryption state before any of it can be
// adopted: the ciphertext vector covers the full dimension, the weight
// is present, and every gathered partial set is a full-length vector
// under its claimed share index — a malformed map must not be able to
// panic CombineParts after adoption.
func validDecState(m wireproto.DecMsg, dim, numShares int) bool {
	if len(m.CTs) != dim || m.Omega == nil {
		return false
	}
	//lint:orderfree pure validation: rejects on any bad entry, order cannot change the verdict
	for idx, ps := range m.Parts {
		if idx < 1 || idx > numShares {
			return false
		}
		if _, err := validPartials(ps, idx, dim); err != nil {
			return false
		}
	}
	return true
}

// validSumState vets a peer's EESum state: full dimension, weight
// present, and an epoch within the deployment's headroom bound — a
// hostile epoch would otherwise drive a 2^(epoch diff) ciphertext
// rescaling of unbounded cost.
func (nd *Node) validSumState(st eesum.SumState, dim int) bool {
	return len(st.CTs) == dim && st.Omega != nil && st.Epoch >= 0 && st.Epoch <= nd.maxEpoch
}
