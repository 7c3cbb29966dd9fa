package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Request is one POST /run body. Seed is the request's fingerprint: the
// server derives image content from (dataset, rows) only, so a never-used
// Seed means new CNN weights and therefore new feature-store keys.
type Request struct {
	Model   string `json:"model"`
	Dataset string `json:"dataset"`
	Layers  int    `json:"layers"`
	Rows    int    `json:"rows"`
	Seed    int64  `json:"seed"`
}

// Expectation is the cache report every measured response of a workload
// must show; it is what makes a workload self-validating.
type Expectation int

const (
	// expectExecuted: every stage ran live (stages_executed == layers).
	expectExecuted Expectation = iota
	// expectCached: every stage attached from the durable store.
	expectCached
	// expectMixed: executed + from_cache == layers, any split.
	expectMixed
	// expectPairs: a lockstep pair forms leader + follower; the follower
	// attaches every stage from the leader's handoff.
	expectPairs
)

// Workload is one traffic mix. The fields are the input properties the
// server's behaviour depends on: how much work requests share (Hot,
// HotShare, Lockstep) and the working set relative to the store (CacheMB).
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why    string
	Model  string
	Rows   int
	Layers int
	// Hot is the size of the reused fingerprint set (0 = every request new).
	Hot int
	// HotShare is the share of requests drawn from the hot set. 1 cycles the
	// set in order; anything lower is a seeded draw, the rest being new.
	HotShare float64
	// Prewarm is how many requests setup sends before the measured loop:
	// the first Prewarm hot fingerprints, or fresh ones when Hot is 0.
	Prewarm int
	// Lockstep makes both clients send the same fingerprint at once.
	Lockstep bool
	// CacheMB is the server's -feature-cache-mb (0 = the server default).
	CacheMB int
	// Share turns on the server's -share.
	Share  bool
	Expect Expectation
	// TwoPointRows, when set, makes the traced run repeat the first request
	// at that many rows, to split request time into fixed and per-row parts.
	TwoPointRows int
}

// serverCacheMB is vista-server's own -feature-cache-mb default.
const serverCacheMB = 256

// Clients is the closed-loop client count: one per core of the 2-core box
// the bounds were measured on. It is fixed, not derived from nproc, so that
// the offered load is the same everywhere.
const Clients = 2

// Warmup is how many leading requests of the sequence are sent but not
// measured.
const Warmup = 4

// TracedRequests is how many leading requests the traced run replays.
const TracedRequests = 20

// Workloads is the benchmark's traffic mixes, in report order. Rows are
// sized so that every workload yields >= 100 measured samples in the
// benchmark's run_seconds on 2 cores (the p90 rule needs 10 beyond it).
var Workloads = []Workload{
	{
		Name:  "cold-distinct",
		Why:   "every request is a new fingerprint, so nothing is reusable: tensor/cnn/dl do most of the work and the store only writes",
		Model: "tiny-vgg16", Rows: 32, Layers: 3,
		Prewarm: 4, Expect: expectExecuted, TwoPointRows: 1000,
	},
	{
		Name:  "warm-repeat",
		Why:   "4 pre-warmed fingerprints cycle, so every stage attaches from the store: data, fingerprinting, store reads, codec and training do the work, tensor none",
		Model: "tiny-resnet50", Rows: 100, Layers: 5,
		Hot: 4, HotShare: 1, Prewarm: 4, Expect: expectCached,
	},
	{
		Name:  "mixed-churn",
		Why:   "60% from a 16-fingerprint hot set, 40% new, -feature-cache-mb 5 (about 40% of the hot set): reads beside writes beside LRU evictions and partial-prefix hits",
		Model: "tiny-resnet50", Rows: 50, Layers: 5,
		Hot: 16, HotShare: 0.6, Prewarm: 6, CacheMB: 5, Expect: expectMixed,
	},
	{
		Name:  "shared-pairs",
		Why:   "-share with both clients sending the same new fingerprint at once: one leader pass serves two runs, so the share window, handoff and follower pricing are on the critical path",
		Model: "tiny-alexnet", Rows: 48, Layers: 3,
		Prewarm: 4, Lockstep: true, Share: true, Expect: expectPairs,
	},
}

// WorkloadByName finds a workload of the benchmark.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// ServerFlags are the vista-server flags the workload runs under, beyond
// the address and the store directory.
func (w Workload) ServerFlags() []string {
	var flags []string
	if w.CacheMB > 0 {
		flags = append(flags, "-feature-cache-mb", fmt.Sprint(w.CacheMB))
	}
	if w.Share {
		flags = append(flags, "-share")
	}
	return flags
}

func (w Workload) request(fingerprint int64) Request {
	return Request{Model: w.Model, Dataset: "foods", Layers: w.Layers, Rows: w.Rows, Seed: fingerprint}
}

// Sequence generates the workload's requests: the prewarm requests setup
// sends, then n requests of the measured loop (the first Warmup of which
// are not measured). It is a pure function of (workload, seed, n), and a
// prefix of a longer sequence of the same (workload, seed).
func Sequence(w Workload, seed int64, n int) (prewarm, seq []Request) {
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(h.Sum64()>>1)))
	used := make(map[int64]bool)
	fresh := func() int64 {
		for {
			// Positive and non-zero: the server reads seed 0 as "default".
			fp := 1 + rng.Int63n(1<<40)
			if !used[fp] {
				used[fp] = true
				return fp
			}
		}
	}
	hot := make([]int64, w.Hot)
	for i := range hot {
		hot[i] = fresh()
	}
	for i := 0; i < w.Prewarm; i++ {
		switch {
		case w.Hot > 0:
			prewarm = append(prewarm, w.request(hot[i%w.Hot]))
		case w.Lockstep && i%2 == 1:
			prewarm = append(prewarm, prewarm[i-1])
		default:
			prewarm = append(prewarm, w.request(fresh()))
		}
	}
	seq = make([]Request, 0, n)
	for i := 0; len(seq) < n; i++ {
		var fp int64
		switch {
		case w.Hot > 0 && w.HotShare >= 1:
			fp = hot[i%w.Hot]
		case w.Hot > 0 && rng.Float64() < w.HotShare:
			fp = hot[rng.Intn(w.Hot)]
		default:
			fp = fresh()
		}
		seq = append(seq, w.request(fp))
		if w.Lockstep && len(seq) < n {
			seq = append(seq, w.request(fp))
		}
	}
	return prewarm, seq
}
