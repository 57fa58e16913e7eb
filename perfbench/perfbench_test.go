package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// TestTracingKeepsReleaseAndCounts runs the sim-dj workload untraced
// and twice traced at one seed: the Scheme decorator and the event
// subscriber must not change the released bits, and the two traced
// jobs must make identical homenc calls and core cycles.
func TestTracingKeepsReleaseAndCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three 1024-bit Damgård–Jurik jobs")
	}
	w := lookupWorkload("sim-dj")
	fx, err := w.build(5)
	if err != nil {
		t.Fatal(err)
	}
	plain := runJob(w, fx, nil, 0)
	tr := &tracer{workload: w.name, seed: 5, epoch: time.Now()}
	traced := []jobOutcome{runJob(w, fx, tr, 0), runJob(w, fx, tr, 1)}
	for i, j := range append([]jobOutcome{plain}, traced...) {
		if j.err != nil || j.bad != nil {
			t.Fatalf("job %d: err %v, reference check %v", i, j.err, j.bad)
		}
		if err := sameBits(plain.res.Centroids, j.res.Centroids); err != nil {
			t.Fatalf("job %d differs from the untraced job: %v", i, err)
		}
	}
	for k, v := range traced[0].layer {
		if isCount(k) && traced[1].layer[k] != v {
			t.Errorf("%s: %v then %v", k, v, traced[1].layer[k])
		}
	}
	for _, k := range []string{"homenc.encrypt.calls", "homenc.partialdecrypt.calls", "homenc.combine.calls", "core.sum.cycles", "core.decryption.cycles"} {
		if traced[0].layer[k] == 0 {
			t.Errorf("%s is 0 on a traced Damgård–Jurik job", k)
		}
	}
	if err := countsRepeat(fx.opts.Mode, traced); err != nil {
		t.Error(err)
	}
}

// TestBucketRule checks the CPU-profile bucketing on a hand-built
// profile, through the same parser the traced run uses.
func TestBucketRule(t *testing.T) {
	samples := []struct {
		stack  [][]string // locations leaf first; a location lists inlined frames innermost first
		weight int64
		want   string
	}{
		{[][]string{{"math/big.nat.expNN"}, {"chiaroscuro/internal/homenc/damgardjurik.(*Scheme).PartialDecrypt"}, {"chiaroscuro/internal/eesum.(*Dec).Step"}}, 8, "damgardjurik"},
		{[][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, 4, "runtime_gc"},
		{[][]string{{"runtime.scanobject"}, {"runtime.gcAssistAlloc1"}, {"runtime.mallocgc"}, {"chiaroscuro/internal/wireproto.Encode"}}, 2, "runtime_gc"},
		{[][]string{{"internal/runtime/syscall.Syscall6"}, {"syscall.Syscall"}, {"internal/poll.(*FD).Read"}, {"net.(*conn).Read"}, {"chiaroscuro/internal/node.(*Node).serve"}}, 3, "net_syscall"},
		{[][]string{{"internal/poll.(*FD).Write"}, {"chiaroscuro/internal/mux.(*Host).pump"}}, 1, "net_syscall"},
		{[][]string{{"chiaroscuro/internal/randx.(*Rand).Float64"}, {"chiaroscuro/internal/dp.Laplace"}, {"chiaroscuro/internal/dpkmeans.RunContext"}}, 5, "dpkmeans"},
		{[][]string{{"math.Sqrt", "chiaroscuro/internal/kmeans.Assign"}, {"chiaroscuro/internal/dpkmeans.RunContext"}}, 6, "kmeans"},
		{[][]string{{"runtime.futex"}, {"runtime.findRunnable"}, {"runtime.schedule"}, {"runtime.mcall"}}, 2, "runtime_sched"},
		{[][]string{{"time.Now"}, {"chiaroscuro/perfbench.(*countingScheme).Add"}, {"chiaroscuro/internal/eesum.(*Sum).Merge"}}, 1, "other"},
		{[][]string{{"compress/flate.(*compressor).deflate"}, {"runtime/pprof.(*profileBuilder).flush"}}, 1, "other"},
		{[][]string{{"chiaroscuro.(*Job).Run"}}, 1, "chiaroscuro"},
	}
	var total int64
	want := map[string]float64{}
	var stacks [][][]string
	var weights []int64
	for _, s := range samples {
		if got := bucket(flatten(s.stack)); got != s.want {
			t.Errorf("bucket(%v) = %s, want %s", s.stack, got, s.want)
		}
		want[s.want] += float64(s.weight)
		total += s.weight
		stacks = append(stacks, s.stack)
		weights = append(weights, s.weight)
	}
	shares, n, err := cpuShares(buildProfile(stacks, weights))
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("parsed %d samples, built %d", n, total)
	}
	for _, b := range cpuBuckets() {
		if got := shares[b]; math.Abs(got-want[b]/float64(total)) > 1e-12 {
			t.Errorf("share %s = %v, want %v", b, got, want[b]/float64(total))
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 30; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	// 30 samples: 20 is the highest with ten beyond it, at p66.
	if v, p := tail(xs); v != 20 || p != 66 {
		t.Errorf("tail of 1..30 = %v at p%v, want 20 at p66", v, p)
	}
	if v, p := tail(xs[:19]); v != median(xs[:19]) || p != 50 {
		t.Errorf("tail of 19 samples = %v at p%v, want the median at p50", v, p)
	}
}

func flatten(locs [][]string) []string {
	var out []string
	for _, l := range locs {
		out = append(out, l...)
	}
	return out
}

// buildProfile encodes a gzipped profile.proto with one sample per
// stack, packing location ids the way runtime/pprof does.
func buildProfile(stacks [][][]string, weights []int64) []byte {
	strs := []string{""}
	funcIDs := map[string]uint64{}
	var prof, funcs, locs []byte
	var nextLoc uint64
	for i, stack := range stacks {
		var ids []byte
		for _, loc := range stack {
			nextLoc++
			var lines []byte
			for _, fn := range loc {
				id, ok := funcIDs[fn]
				if !ok {
					id = uint64(len(funcIDs) + 1)
					funcIDs[fn] = id
					strs = append(strs, fn)
					f := pbVarint(nil, 1, id)
					f = pbVarint(f, 2, uint64(len(strs)-1))
					funcs = pbBytes(funcs, 5, f)
				}
				lines = pbBytes(lines, 4, pbVarint(nil, 1, id))
			}
			locs = pbBytes(locs, 4, append(pbVarint(nil, 1, nextLoc), lines...))
			ids = binary.AppendUvarint(ids, nextLoc)
		}
		s := pbBytes(nil, 1, ids)
		s = pbBytes(s, 2, binary.AppendUvarint(binary.AppendUvarint(nil, uint64(weights[i])), uint64(weights[i])*1e7))
		prof = pbBytes(prof, 2, s)
	}
	prof = append(append(prof, locs...), funcs...)
	for _, s := range strs {
		prof = pbBytes(prof, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = zw.Write(prof) // writes to a bytes.Buffer cannot fail
	_ = zw.Close()
	return buf.Bytes()
}

func pbVarint(b []byte, num int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func pbBytes(b []byte, num int, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(payload))), payload...)
}
