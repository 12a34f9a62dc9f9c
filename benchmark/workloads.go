package main

// The benchmark's frozen constants. They live here rather than in
// BENCHMARK.json because that file's key set is fixed by the driver
// contract; everything below is identical on every commit, and a
// change to it is a change to the benchmark (its own PR, baseline
// re-measured), never part of a PR that claims a gain.

// Phase shares of --seconds. The issue's 3 s / 12 s / 15 s run shape,
// shrunk proportionally to the contract's time cap.
const (
	warmShare   = 0.10
	closedShare = 0.40
	openShare   = 0.50
	openWindows = 5
	// closedWindows cuts the closed phase the same way; goodput and
	// server CPU per op are medians over the cuts like the latencies.
	closedWindows = 8

	// Traced runs split the same budget into an untraced closed phase
	// (the R scrape and the overhead baseline), a traced closed phase
	// and a short open phase for the generator health figures.
	tracedClosedShare = 0.30
	tracedOpenShare   = 0.30
)

// Corpus and model shape.
const (
	corpusGroups   = 2000
	modelTerms     = 200000 // TrueModel padded with filler: vocabulary tables larger than L2
	maxN           = 3
	scoreBatch     = 64  // snippets per score frame / JSON batch
	optimizeCands  = 128 // candidates per optimize frame
	optimizeTopK   = 8
	feedbackSess   = 200 // sessions per feedback body
	feedbackSnips  = 20  // snippet events per feedback body
	snipImpression = 50
	poolFrames     = 256 // distinct requests per stream; senders cycle through them
	feedbackPool   = 64
	replaySample   = 2000 // requests replayed in process for the per-layer (T) metrics
	adsPerSession  = 4

	// DefaultSeed drives every documented run; HeldOutSeed is reserved
	// for confirming a later claim on inputs nobody tuned against.
	DefaultSeed = 20190408
	HeldOutSeed = 77012643
)

// workloadSpec is one named traffic mix.
type workloadSpec struct {
	Name string
	Why  string
	// OpsPerRequest converts read requests to ops (snippets, candidates)
	// for the three read workloads.
	OpsPerRequest int
	// OpenRate is the frozen open-phase read rate in requests/s summed
	// over the reading connections: ≈40 % of the closed-phase request
	// rate measured on the sandbox when the benchmark was defined,
	// rounded to 2 significant digits.
	OpenRate float64
	// FeedbackRate (mixed_online only) is connection A's open-phase
	// POST /v1/feedback rate, frozen the same way.
	FeedbackRate float64
	// Setups is how many times an untraced run sets up; setup_s is the
	// median over them. mixed_online's set-up waits out the learner's
	// 2 s publish interval, so it gets fewer.
	Setups int
	// P99LimitMS is the -sweep latency limit: the highest offered rate
	// whose lat_p99_ms stays under it is the workload's capacity figure.
	P99LimitMS float64
}

var workloads = []workloadSpec{
	{
		Name:          "score_mbsp",
		Why:           "kernel-bound: MBSP frames of 64 micro snippets, so tokenise/lookup/score gains show at nearly full size",
		OpsPerRequest: scoreBatch,
		OpenRate:      3200,
		Setups:        8,
		P99LimitMS:    2,
	},
	{
		Name:          "score_json",
		Why:           "protocol-bound: the same request stream as JSON batches, so codec gains show here and nothing shows on score_mbsp",
		OpsPerRequest: scoreBatch,
		OpenRate:      840,
		Setups:        8,
		P99LimitMS:    5,
	},
	{
		Name:          "optimize_mbsp",
		Why:           "the paper's use: one query x 128 shared-line candidates, top 8; taxes on the candidate-set path show only here",
		OpsPerRequest: optimizeCands,
		OpenRate:      6500,
		Setups:        8,
		P99LimitMS:    2,
	},
	{
		Name:          "mixed_online",
		Why:           "writes beside reads: feedback ingest, WAL and online publishes while a reader resolves the versions being replaced",
		OpsPerRequest: scoreBatch,
		OpenRate:      1200,
		FeedbackRate:  330,
		Setups:        3,
		P99LimitMS:    5,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
