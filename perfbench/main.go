// Command perfbench is the repository's benchmark. It runs full
// chiaroscuro Jobs back to back in one process (a closed loop with one
// client) on a named workload, checks every released centroid set bit
// for bit against a reference, and prints the end-to-end metrics, or,
// with -trace 1, the per-layer metrics of a traced run. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"job_p50_ms": {"value": 2712.4, "unit": "ms"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload sim-dj --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"chiaroscuro"
)

// setupReps is how many times a run constructs keys, inputs and the
// reference; setup_s takes their median.
const setupReps = 3

// runBudget bounds a whole run: no job starts after it, so the process
// ends well inside three minutes even when a job hits its deadline.
const runBudget = 110 * time.Second

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	procStart := time.Now()
	var (
		name    = flag.String("workload", "", "workload name: sim-dj, tcp-dj, mux-2host, mux-1host or cdp-1m")
		seed    = flag.Uint64("seed", 1, "workload seed: feeds the data, the initial centroids and Options.Seed")
		seconds = flag.Int("seconds", 25, "how long to run timed jobs")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		outDir  = flag.String("out", ".bench_build/spans", "directory for the traced run's spans")
	)
	flag.Parse()
	w := lookupWorkload(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *outDir, procStart); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(w *workload, seed uint64, dur time.Duration, traced bool, outDir string, procStart time.Time) error {
	fmt.Printf("# go=%s nproc=%d GOMAXPROCS=%d CHIAROSCURO_WORKERS=%q\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), os.Getenv("CHIAROSCURO_WORKERS"))
	fmt.Printf("# workload=%s seed=%d inputs=%d seconds=%.0f trace=%v scheme=%q participants=%d iterations=%d\n",
		w.name, seed, w.inputs, dur.Seconds(), traced, w.scheme, w.n, w.iters)

	fxs, setup, warm, err := setUp(w, seed)
	if err != nil {
		return err
	}
	budgetEnd := procStart.Add(runBudget)
	mode := fxs[0].opts.Mode
	if !traced {
		jobs := measure(w, fxs, nil, dur, 1, budgetEnd)
		fmt.Printf("# jobs=%d over %d inputs after %d warm-up\n", len(jobs), len(fxs), len(warm))
		return report(mode, append(warm, jobs...), endToEnd(w, mode, jobs, setup))
	}

	// The traced run: an untraced half, then a traced half under a CPU
	// profile, so trace.overhead compares the two within one process.
	// Both run the seed's own input alone, so every traced job of a
	// Simulated workload must repeat the same counts.
	plain := measure(w, fxs[:1], nil, dur/2, 1, budgetEnd)
	tr := &tracer{workload: w.name, seed: seed, epoch: time.Now()}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	// Two traced jobs at least, so the count-determinism check has a pair.
	tracedJobs := measure(w, fxs[:1], tr, dur/2, 2, budgetEnd)
	pprof.StopCPUProfile()
	fmt.Printf("# jobs=%d untraced + %d traced after %d warm-up\n", len(plain), len(tracedJobs), len(warm))

	m, err := perLayer(plain, tracedJobs, prof.Bytes())
	if err != nil {
		return err
	}
	path, err := tr.write(outDir)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# spans=%d written to %s\n", len(tr.spans), path)
	return report(mode, slices.Concat(warm, plain, tracedJobs), m)
}

// warmUpTries bounds the warm-up attempts. A warm-up job that fails
// (the mux-2host join defect) is counted as a failed job and retried.
const warmUpTries = 3

// setUp constructs the workload's inputs setupReps times, keeping the
// last set, then runs an untimed warm-up job on the first input (its
// verify variant, where one exists). The
// set-up time is the median construction plus the warm-up job that
// completed; every warm-up attempt is returned so the run counts it.
func setUp(w *workload, seed uint64) ([]*fixture, float64, []jobOutcome, error) {
	var fxs []*fixture
	var reps []float64
	for r := 0; r < setupReps; r++ {
		fxs = nil
		runtime.GC()
		t := time.Now()
		for i := 0; i < w.inputs; i++ {
			fx, err := w.build(inputSeed(seed, i))
			if err != nil {
				return nil, 0, nil, fmt.Errorf("set-up: %w", err)
			}
			fxs = append(fxs, fx)
		}
		reps = append(reps, time.Since(t).Seconds())
	}
	wfx := fxs[0]
	if wfx.verify != nil {
		wfx = wfx.verify
	}
	var warm []jobOutcome
	for len(warm) < warmUpTries {
		o := runJob(w, wfx, nil, -1)
		logJob("warm-up", o)
		warm = append(warm, o)
		if o.err == nil {
			break
		}
	}
	last := warm[len(warm)-1]
	fmt.Printf("# setup: construction %.3fs (median of %v), warm-up %.3fs\n", median(reps), reps, last.wall.Seconds())
	return fxs, median(reps) + last.wall.Seconds(), warm, nil
}

// inputSeed derives the seed of a run's i-th input; input 0 is the run
// seed itself.
func inputSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9E3779B97F4A7C15
}

// logJob prints one job's measurements, or why it failed.
func logJob(label string, o jobOutcome) {
	switch {
	case o.err != nil:
		fmt.Printf("# %s failed after %.1fs: %v\n", label, o.wall.Seconds(), o.err)
	case o.bad != nil:
		fmt.Printf("# %s released wrong centroids: %v\n", label, o.bad)
	default:
		fmt.Printf("# %s wall=%.1fms cpu=%.1fms alloc=%.1fMiB allocs=%.0f\n", label, ms(o.wall), ms(o.cpu), o.allocMB, o.allocs)
	}
}

// jobOutcome is one job's measurements.
type jobOutcome struct {
	wall    time.Duration
	cpu     time.Duration
	allocMB float64
	allocs  float64
	res     *chiaroscuro.Result
	err     error // the job did not complete (error or deadline)
	bad     error // the job completed with a wrong release
	layer   map[string]float64
}

// measure runs jobs back to back, cycling through the inputs, for dur
// and on until minDone jobs have finished without an error, starting
// none after budgetEnd.
func measure(w *workload, fxs []*fixture, tr *tracer, dur time.Duration, minDone int, budgetEnd time.Time) []jobOutcome {
	var out []jobOutcome
	done := 0
	t0 := time.Now()
	for done < minDone || time.Since(t0) < dur {
		if len(out) > 0 && time.Now().After(budgetEnd) {
			break
		}
		o := runJob(w, fxs[len(out)%len(fxs)], tr, len(out))
		logJob(fmt.Sprintf("job %d", len(out)), o)
		if o.err == nil {
			done++
		}
		out = append(out, o)
	}
	return out
}

// runJob runs one Job under the workload's deadline. A tracer decorates
// the scheme, subscribes to the event stream and records spans.
func runJob(w *workload, fx *fixture, tr *tracer, index int) jobOutcome {
	opts := fx.opts
	var cs *countingScheme
	if tr != nil && opts.Scheme != nil {
		cs = newCountingScheme(opts.Scheme)
		opts.Scheme = cs
	}
	runtime.GC() // start every job from the same heap state, outside the timer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()

	var o jobOutcome
	job, err := chiaroscuro.NewJob(fx.data, opts)
	if err != nil {
		o.err = err
		return o
	}
	var evs []timedEvent
	evDone := make(chan struct{})
	if tr != nil {
		stream := job.Events()
		go func() {
			defer close(evDone)
			for ev := range stream {
				evs = append(evs, timedEvent{time.Now(), ev})
			}
		}()
	} else {
		close(evDone)
	}
	stopHeap, heapPeak := make(chan struct{}), make(chan uint64, 1)
	if tr != nil {
		go sampleHeapPeak(stopHeap, heapPeak)
	}
	ctx, cancel := context.WithTimeout(context.Background(), w.deadline)
	runStart := time.Now()
	o.res, o.err = job.Run(ctx)
	end := time.Now()
	cancel()
	close(stopHeap)
	o.wall = end.Sub(start)
	o.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	<-evDone
	o.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	o.allocs = float64(m1.Mallocs - m0.Mallocs)
	if o.err == nil {
		o.bad = fx.check(o.res)
	} else if tr != nil {
		cycles := 0
		for _, te := range evs {
			if _, ok := te.ev.(chiaroscuro.PhaseProgress); ok {
				cycles++
			}
		}
		o.err = fmt.Errorf("%w (participant 0 completed %d phase cycles)", o.err, cycles)
	}
	if tr != nil && o.err == nil {
		o.layer = tr.eventLayers(index, runStart, end, evs)
		if cs == nil {
			cs = newCountingScheme(nil) // no scheme in this mode: every count is 0
		}
		cs.snapshot(o.layer)
		wireLayers(o.layer, o.res.Wire)
		o.layer["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		o.layer["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		o.layer["runtime.peak_heap_mb"] = float64(<-heapPeak) / (1 << 20)
		o.layer["wire_bytes_per_participant"] = wireBytesPerParticipant(w, o.res)
	}
	return o
}

func wireLayers(m map[string]float64, ws *chiaroscuro.WireStats) {
	if ws == nil {
		ws = &chiaroscuro.WireStats{} // no wire in this mode
	}
	m["node.initiated"] = float64(ws.Initiated)
	m["node.responded"] = float64(ws.Responded)
	m["node.timeouts"] = float64(ws.Timeouts)
	m["node.retries"] = float64(ws.Retries)
	m["node.rejected"] = float64(ws.Rejected)
	m["node.bad_frames"] = float64(ws.BadFrames)
	m["node.commit_ratio"] = 0
	if ws.Initiated > 0 {
		m["node.commit_ratio"] = float64(ws.Responded) / float64(ws.Initiated)
	}
	m["wireproto.bytes_sent"] = float64(ws.BytesSent)
	m["wireproto.bytes_recv"] = float64(ws.BytesRecv)
}

// wireBytesPerParticipant is Result.AvgBytes in Simulated mode, the
// wire's bytes sent over the population in Networked mode, and 0 in the
// centralized modes, which have no wire.
func wireBytesPerParticipant(w *workload, res *chiaroscuro.Result) float64 {
	if res.Wire != nil {
		return float64(res.Wire.BytesSent) / float64(w.n)
	}
	return res.AvgBytes
}

// completed returns the jobs that finished with the reference release.
func completed(jobs []jobOutcome) []jobOutcome {
	var ok []jobOutcome
	for _, j := range jobs {
		if j.err == nil && j.bad == nil {
			ok = append(ok, j)
		}
	}
	return ok
}

func collect(jobs []jobOutcome, f func(jobOutcome) float64) []float64 {
	xs := make([]float64, len(jobs))
	for i, j := range jobs {
		xs[i] = f(j)
	}
	return xs
}

// endToEnd computes the untraced run's metrics. Latencies cover
// completed jobs only.
func endToEnd(w *workload, mode chiaroscuro.Mode, jobs []jobOutcome, setup float64) map[string]metric {
	ok := completed(jobs)
	if len(ok) == 0 {
		return nil
	}
	walls := collect(ok, func(j jobOutcome) float64 { return ms(j.wall) })
	p50 := median(walls)
	tailV, tailP := tail(walls)
	fmt.Printf("# job_tail_ms is p%.0f of %d completed jobs", tailP, len(ok))
	if tailP == 50 {
		fmt.Printf(" (fewer than %d jobs: the percentile with %d jobs beyond it would not reach the median, which stands in)", 2*minBeyond, minBeyond)
	}
	fmt.Println()
	m := map[string]metric{
		"setup_s":                 {setup, "s"},
		"job_p50_ms":              {p50, "ms"},
		"job_tail_ms":             {tailV, "ms"},
		"participant_iters_per_s": {float64(w.n*w.iters) / (p50 / 1e3), "1/s"},
		"cpu_ms_per_job":          {median(collect(ok, func(j jobOutcome) float64 { return ms(j.cpu) })), "ms"},
		"alloc_mb_per_job":        {median(collect(ok, func(j jobOutcome) float64 { return j.allocMB })), "MiB"},
		"allocs_per_job":          {median(collect(ok, func(j jobOutcome) float64 { return j.allocs })), "count"},
	}
	// Printed, but not in the result line. The process's peak RSS grows
	// with the number of jobs a run makes: a mux-2host job leaves ~14 MiB
	// reachable for ~30 s after it returns. Wire bytes are n/a without a
	// wire (cdp-1m), and failed_frac is 0 on a clean run; the result's
	// attempted and failed fields carry it.
	fmt.Printf("peak_rss_mb %v MiB\n", peakRSSMB())
	if mode == chiaroscuro.Centralized || mode == chiaroscuro.CentralizedDP {
		fmt.Println("wire_bytes_per_participant n/a bytes")
	} else {
		fmt.Printf("wire_bytes_per_participant %.1f bytes\n", median(collect(ok, func(j jobOutcome) float64 { return wireBytesPerParticipant(w, j.res) })))
	}
	return m
}

// perLayer computes the traced run's metrics: the per-job medians of
// every layer value, the CPU-profile shares and the tracing overhead.
func perLayer(plain, traced []jobOutcome, prof []byte) (map[string]metric, error) {
	okTraced, okPlain := completed(traced), completed(plain)
	if len(okTraced) == 0 || len(okPlain) == 0 {
		return nil, nil
	}
	m := map[string]metric{}
	for key := range okTraced[0].layer {
		vals := collect(okTraced, func(j jobOutcome) float64 { return j.layer[key] })
		m[key] = metric{median(vals), layerUnit(key)}
	}
	shares, samples, err := cpuShares(prof)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# cpu profile: %d samples\n", samples)
	for b, v := range shares {
		m["cpu."+b] = metric{v, "share"}
	}
	tracedP50 := median(collect(okTraced, func(j jobOutcome) float64 { return ms(j.wall) }))
	plainP50 := median(collect(okPlain, func(j jobOutcome) float64 { return ms(j.wall) }))
	m["trace.overhead"] = metric{tracedP50 / plainP50, "ratio"}
	return m, nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(key string) string {
	switch {
	case strings.HasSuffix(key, "_ms"), strings.HasSuffix(key, ".ms"):
		return "ms"
	case strings.HasSuffix(key, "_mb"):
		return "MiB"
	case strings.HasPrefix(key, "wireproto.bytes"), key == "wire_bytes_per_participant":
		return "bytes"
	case key == "node.commit_ratio":
		return "ratio"
	}
	return "count"
}

// report prints every metric by name and unit, then the result line.
func report(mode chiaroscuro.Mode, jobs []jobOutcome, metrics map[string]metric) error {
	if metrics == nil {
		return fmt.Errorf("no job of %d completed with the reference release", len(jobs))
	}
	res := result{Correct: true, Attempted: len(jobs), Metrics: metrics}
	for _, j := range jobs {
		if j.bad != nil {
			res.Correct = false
		}
		if j.err != nil || j.bad != nil {
			res.Failed++
		}
	}
	fmt.Printf("failed_frac %.4f fraction (%d of %d jobs, warm-up included)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if err := countsRepeat(mode, jobs); err != nil {
		fmt.Println("# count determinism:", err)
		res.Correct = false
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s %v %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// countsRepeat requires the traced jobs of a Simulated workload — every
// one at the same seed — to make identical homenc calls and core
// cycles. Networked traces depend on scheduling, so their counts are
// reported without this check.
func countsRepeat(mode chiaroscuro.Mode, jobs []jobOutcome) error {
	if mode != chiaroscuro.Simulated {
		return nil
	}
	var first map[string]float64
	for _, j := range completed(jobs) {
		if j.layer == nil {
			continue
		}
		if first == nil {
			first = j.layer
			continue
		}
		for k, v := range j.layer {
			if isCount(k) && first[k] != v {
				return fmt.Errorf("%s is %v in one job and %v in another", k, first[k], v)
			}
		}
	}
	return nil
}

func isCount(key string) bool {
	return (strings.HasPrefix(key, "homenc.") && strings.HasSuffix(key, ".calls")) ||
		(strings.HasPrefix(key, "core.") && strings.HasSuffix(key, ".cycles"))
}
