package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"chiaroscuro"
)

// djKeyBits is the paper's Damgård–Jurik modulus size, used by every
// distributed workload (the mux workloads borrow its ciphertext size).
const djKeyBits = 1024

// workload is one named input shape of the benchmark.
type workload struct {
	name   string
	scheme string // the encryption the jobs run on, for the run header
	n      int    // participants (distributed) or series (centralized)
	iters  int    // clustering iterations per job
	// inputs is how many seeds a run derives from its seed. Jobs cycle
	// through them, so a run's figures average over inputs whose work
	// differs: the epidemic decryption's PartialDecrypt count, which
	// dominates sim-dj, ranges from 364 to 494 across three seeds.
	inputs int
	// deadline bounds one job, so a wedged run becomes a counted
	// failure instead of a hung benchmark. It is three to six times a
	// normal job on a 2-core machine.
	deadline time.Duration
	// build constructs keys, inputs and references from the seed; it runs
	// no measured job.
	build func(seed uint64) (*fixture, error)
}

// fixture is everything a workload's jobs share: the generated inputs,
// the job options (scheme included) and the reference release every
// job must reproduce bit for bit.
type fixture struct {
	data *chiaroscuro.Dataset
	opts chiaroscuro.Options
	// budget is the ε a job may consume at most.
	budget float64
	// ref is the reference release. Distributed workloads compute it in
	// setup with the Simulated backend on the simulation scheme; for the
	// centralized workload the warm-up job's release becomes it.
	ref []chiaroscuro.Series
	// verify, for the distributed workloads, is the same input at
	// ε = checkEpsilon with its own reference; the warm-up job runs it.
	// At ε = ln 2 every released centroid of these workloads is its
	// initial seed (the aberrant filter drops every noisy mean), so ref
	// alone would pass a wrong decryption; at ε = checkEpsilon the
	// release carries the decrypted sums.
	verify *fixture
}

// checkEpsilon is the budget of the distributed workloads' check job.
const checkEpsilon = 1e4

var workloads = []*workload{
	{
		name:     "sim-dj",
		scheme:   "damgard-jurik, 1024-bit key",
		n:        16,
		iters:    1,
		inputs:   8,
		deadline: 15 * time.Second,
		build: func(seed uint64) (*fixture, error) {
			return djFixture(seed, chiaroscuro.Simulated)
		},
	},
	{
		name:     "tcp-dj",
		scheme:   "damgard-jurik, 1024-bit key",
		n:        16,
		iters:    1,
		inputs:   8,
		deadline: 15 * time.Second,
		build: func(seed uint64) (*fixture, error) {
			return djFixture(seed, chiaroscuro.Networked)
		},
	},
	{
		name:     "mux-2host",
		scheme:   "simulation, 1024-bit key's ciphertext size",
		n:        256,
		iters:    1,
		inputs:   4,
		deadline: 12 * time.Second,
		build:    func(seed uint64) (*fixture, error) { return muxFixture(seed, 128) },
	},
	{
		// The mux-2host population on a single host: the same mux,
		// node and wireproto frames, all over in-process pipes. It
		// runs without the two-host join defect (see NOTES.md), so its
		// figures compare run to run.
		name:     "mux-1host",
		scheme:   "simulation, 1024-bit key's ciphertext size",
		n:        256,
		iters:    1,
		inputs:   4,
		deadline: 12 * time.Second,
		build:    func(seed uint64) (*fixture, error) { return muxFixture(seed, 256) },
	},
	{
		name:     "cdp-1m",
		scheme:   "none",
		n:        1_000_000,
		iters:    10,
		inputs:   1, // its work barely depends on the seed, and an input is 190 MiB
		deadline: 20 * time.Second,
		build:    cdpFixture,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// distributedOptions is the protocol configuration shared by the
// distributed workloads: CER series, ε = ln 2, one iteration, and the
// fixed phase lengths a networked deployment uses.
func distributedOptions(seed uint64, mode chiaroscuro.Mode, n, k, exchanges int, scheme chiaroscuro.Scheme) (*chiaroscuro.Dataset, chiaroscuro.Options) {
	data, _ := chiaroscuro.GenerateCER(n, seed)
	diss, dec := chiaroscuro.FixedPhaseCycles(n)
	return data, chiaroscuro.Options{
		Mode:          mode,
		InitCentroids: chiaroscuro.SeedCentroids("cer", k, seed),
		K:             k,
		DMin:          chiaroscuro.CERMin,
		DMax:          chiaroscuro.CERMax,
		Epsilon:       math.Ln2,
		MaxIterations: 1,
		Exchanges:     exchanges,
		DissCycles:    diss,
		DecryptCycles: dec,
		Seed:          seed,
		Scheme:        scheme,
	}
}

func djFixture(seed uint64, mode chiaroscuro.Mode) (*fixture, error) {
	const n, k, tau, exchanges = 16, 4, 4, 16
	scheme, err := chiaroscuro.NewTestScheme(djKeyBits, 2, n, tau)
	if err != nil {
		return nil, fmt.Errorf("damgard-jurik key: %w", err)
	}
	data, opts := distributedOptions(seed, mode, n, k, exchanges, scheme)
	return withReference(data, opts, tau)
}

// muxFixture is the virtual-node configuration with vnodes
// participants per mux host.
func muxFixture(seed uint64, vnodes int) (*fixture, error) {
	const n, k, tau, exchanges = 256, 4, 4, 10
	dj, err := chiaroscuro.NewTestScheme(djKeyBits, 2, 16, 4)
	if err != nil {
		return nil, fmt.Errorf("damgard-jurik key: %w", err)
	}
	scheme, err := chiaroscuro.NewSimulationScheme(dj.CiphertextBytes(), n, tau)
	if err != nil {
		return nil, fmt.Errorf("simulation scheme: %w", err)
	}
	data, opts := distributedOptions(seed, chiaroscuro.Networked, n, k, exchanges, scheme)
	opts.VirtualNodes = vnodes
	return withReference(data, opts, tau)
}

// withReference attaches the references of a distributed
// configuration, at its own ε and at checkEpsilon.
func withReference(data *chiaroscuro.Dataset, opts chiaroscuro.Options, tau int) (*fixture, error) {
	fx, err := referenced(data, opts, tau)
	if err != nil {
		return nil, err
	}
	opts.Epsilon = checkEpsilon
	if fx.verify, err = referenced(data, opts, tau); err != nil {
		return nil, err
	}
	return fx, nil
}

// referenced computes the reference release of a distributed
// configuration: the Simulated backend on the simulation scheme, at the
// same seed and phase lengths.
func referenced(data *chiaroscuro.Dataset, opts chiaroscuro.Options, tau int) (*fixture, error) {
	ref := opts
	ref.Mode = chiaroscuro.Simulated
	ref.VirtualNodes = 0
	scheme, err := chiaroscuro.NewSimulationScheme(opts.Scheme.CiphertextBytes(), data.Len(), tau)
	if err != nil {
		return nil, fmt.Errorf("reference scheme: %w", err)
	}
	ref.Scheme = scheme
	job, err := chiaroscuro.NewJob(data, ref)
	if err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}
	res, err := job.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return &fixture{data: data, opts: opts, budget: opts.Epsilon, ref: cloneSeries(res.Centroids)}, nil
}

func cdpFixture(seed uint64) (*fixture, error) {
	const n, k = 1_000_000, 50
	data, _ := chiaroscuro.GenerateCER(n, seed)
	return &fixture{
		data: data,
		opts: chiaroscuro.Options{
			Mode:          chiaroscuro.CentralizedDP,
			InitCentroids: chiaroscuro.SeedCentroids("cer", k, seed),
			DMin:          chiaroscuro.CERMin,
			DMax:          chiaroscuro.CERMax,
			Budget:        chiaroscuro.GreedyFloor(math.Ln2, 4),
			Smooth:        true,
			MaxIterations: 10,
			Seed:          seed,
		},
		budget: math.Ln2,
	}, nil
}

// check reports why a job's result differs from the reference, or nil.
// The first checked result of a fixture without a reference becomes it.
func (fx *fixture) check(res *chiaroscuro.Result) error {
	if res.TotalEpsilon > fx.budget*(1+1e-12) {
		return fmt.Errorf("consumed ε %v exceeds the budget %v", res.TotalEpsilon, fx.budget)
	}
	if fx.ref == nil {
		fx.ref = cloneSeries(res.Centroids)
		return nil
	}
	return sameBits(fx.ref, res.Centroids)
}

// cloneSeries deep-copies a release. Released centroids may share
// storage with the run's inputs (an empty cluster keeps its initial
// centroid's slice), so a reference kept by reference would follow
// any later mutation of that storage instead of catching it.
func cloneSeries(ss []chiaroscuro.Series) []chiaroscuro.Series {
	out := make([]chiaroscuro.Series, len(ss))
	for i, s := range ss {
		out[i] = slices.Clone(s)
	}
	return out
}

// sameBits reports the first centroid coordinate whose bits differ.
func sameBits(want, got []chiaroscuro.Series) error {
	if len(want) != len(got) {
		return fmt.Errorf("released %d centroids, reference has %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("centroid %d has %d measures, reference has %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(want[i][j]) != math.Float64bits(got[i][j]) {
				return fmt.Errorf("centroid %d[%d] = %016x, reference %016x", i, j,
					math.Float64bits(got[i][j]), math.Float64bits(want[i][j]))
			}
		}
	}
	return nil
}
