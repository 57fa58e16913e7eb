package main

import (
	"math/big"
	"sync/atomic"
	"time"

	"chiaroscuro/internal/homenc"
)

// op indexes the homomorphic operations the counting decorator times.
type op int

const (
	opEncrypt op = iota
	opAdd
	opScalarMul
	opPartialDecrypt
	opCombine
	numOps
)

var opNames = [numOps]string{"encrypt", "add", "scalarmul", "partialdecrypt", "combine"}

// countingScheme decorates a homenc.Scheme with per-operation call
// counts and summed wall time inside the calls. The protocol calls the
// scheme from many goroutines at once (a mux-2host job makes millions
// of Add/ScalarMul calls), so every operation has its own atomics and
// nothing is shared under a lock. The summed time includes any wait
// for a core while a call was in progress.
type countingScheme struct {
	homenc.Scheme
	calls [numOps]atomic.Int64
	nanos [numOps]atomic.Int64
}

var _ homenc.Scheme = (*countingScheme)(nil)

func newCountingScheme(s homenc.Scheme) *countingScheme { return &countingScheme{Scheme: s} }

func (s *countingScheme) record(o op, start time.Time) {
	s.calls[o].Add(1)
	s.nanos[o].Add(int64(time.Since(start)))
}

func (s *countingScheme) Encrypt(m *big.Int) homenc.Ciphertext {
	t := time.Now()
	c := s.Scheme.Encrypt(m)
	s.record(opEncrypt, t)
	return c
}

func (s *countingScheme) Add(a, b homenc.Ciphertext) homenc.Ciphertext {
	t := time.Now()
	c := s.Scheme.Add(a, b)
	s.record(opAdd, t)
	return c
}

func (s *countingScheme) ScalarMul(a homenc.Ciphertext, k *big.Int) homenc.Ciphertext {
	t := time.Now()
	c := s.Scheme.ScalarMul(a, k)
	s.record(opScalarMul, t)
	return c
}

func (s *countingScheme) PartialDecrypt(index int, c homenc.Ciphertext) (homenc.PartialDecryption, error) {
	t := time.Now()
	p, err := s.Scheme.PartialDecrypt(index, c)
	s.record(opPartialDecrypt, t)
	return p, err
}

func (s *countingScheme) Combine(c homenc.Ciphertext, parts []homenc.PartialDecryption) (*big.Int, error) {
	t := time.Now()
	m, err := s.Scheme.Combine(c, parts)
	s.record(opCombine, t)
	return m, err
}

// snapshot adds the decorator's counters to m as homenc.<op>.{calls,ms}.
func (s *countingScheme) snapshot(m map[string]float64) {
	for o := op(0); o < numOps; o++ {
		m["homenc."+opNames[o]+".calls"] = float64(s.calls[o].Load())
		m["homenc."+opNames[o]+".ms"] = float64(s.nanos[o].Load()) / 1e6
	}
}
