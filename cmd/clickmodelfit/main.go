// Command clickmodelfit fits the classical macro click models of the
// paper's Section II (PBM, cascade, DCM, UBM, BBM, CCM, DBN, SDBN, GCM,
// SUM) to simulated SERP session logs and reports held-out
// log-likelihood, click perplexity and engine-predicted CTR — the S1
// substrate experiment of DESIGN.md.
//
// Models are selected by registry name through the unified scoring
// engine; held-out CTR prediction runs through Engine.ScoreBatch, on
// the calling goroutine plus helper strands up to the -workers cap.
//
// With -o the fitted model is also written as a snapshot artifact — the
// train-offline half of the serving split; point cmd/microserve -load
// at the file (or POST it to /v1/models/{name}/load) to serve it. Every
// model writes the one artifact format, v2: a sectioned layout that
// microserve maps read-only and every click model is thawed from — its
// values copied into the form a fit produces. -conv rewrites an
// artifact an earlier build wrote as a current one in place (atomic
// temp-file + rename, so a serving process watching the path never
// sees a half-written file) without refitting anything: it loads the
// artifact into an engine and exports it again. A micro model placed
// under an earlier hash scheme, which microserve loads only by
// rebuilding its probe tables on the heap, comes back placed under
// this one; a click model comes back without the probe-table sections
// older builds wrote and no load reads.
//
// Usage:
//
//	clickmodelfit -sessions 20000 -ads 4
//	clickmodelfit -model pbm -workers 8 -iters 10
//	clickmodelfit -model pbm -o pbm.bin              # fit → snapshot → serve
//	clickmodelfit -conv pbm.bin                      # older artifact → current, in place
//	clickmodelfit -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/adcorpus"
	"repro/internal/clickmodel"
	"repro/internal/engine"
	"repro/internal/serp"
	"repro/internal/snapshot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clickmodelfit: ")

	nSessions := flag.Int("sessions", 20000, "sessions to simulate")
	ads := flag.Int("ads", 4, "ads per result page")
	groups := flag.Int("groups", 500, "adgroups backing the simulation")
	seed := flag.Int64("seed", 11, "random seed")
	only := flag.String("model", "", "fit only this registry model (empty = all; see -list)")
	iters := flag.Int("iters", 0, "EM iterations for iterative models (0 = model default)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "engine-wide cap on batch-scoring strands (the calling goroutine always scores)")
	out := flag.String("o", "", "write the fitted model (-model; default pbm when fitting all) as a snapshot artifact")
	conv := flag.String("conv", "", "rewrite the named artifact (placed by an earlier build) as a current one in place (atomic) and exit; no fitting")
	list := flag.Bool("list", false, "list registered click models and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(clickmodel.Names(), "\n"))
		return
	}
	if *conv != "" {
		if err := convertToV2(*conv); err != nil {
			log.Fatalf("-conv %s: %v", *conv, err)
		}
		log.Printf("%s is now a current v2 (zero-parse) artifact", *conv)
		return
	}

	names := clickmodel.Names()
	if *only != "" {
		if _, err := clickmodel.New(*only); err != nil {
			log.Fatal(err)
		}
		names = []string{*only} // the registry canonicalises the name
	}

	corpus := adcorpus.Generate(adcorpus.Config{Seed: *seed, Groups: *groups}, adcorpus.DefaultLexicon())
	sim := serp.New(serp.Config{Seed: *seed + 1})
	all := sim.Sessions(corpus, *nSessions, *ads)
	split := len(all) * 4 / 5
	train, test := all[:split], all[split:]
	log.Printf("simulated %d sessions (%d train / %d test), %d ads per page",
		len(all), len(train), len(test), *ads)

	// Intern the training log once; every model fits from the compiled
	// form instead of re-hashing the string pairs per fit.
	compiled, err := clickmodel.Compile(train)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	eng := engine.New(engine.WithWorkers(*workers))
	reqs := make([]engine.Request, len(test))
	for i := range test {
		reqs[i] = engine.Request{Session: &test[i]}
	}

	// The snapshot target: the explicitly selected model, or PBM when
	// fitting the whole registry.
	snapTarget := strings.ToLower(strings.TrimSpace(*only))
	if snapTarget == "" {
		snapTarget = "pbm"
	}

	fmt.Printf("%-8s %14s %12s %10s  %s\n", "model", "mean LL", "perplexity", "mean pCTR", "perplexity by rank")
	for _, name := range names {
		start := time.Now()
		m, err := eng.Fit(name, compiled, *iters)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		ev := clickmodel.Evaluate(m, test)

		// Held-out CTR prediction through the engine's batch API.
		for i := range reqs {
			reqs[i].Model = name
		}
		pCTR, err := engine.MeanCTR(eng.ScoreBatch(ctx, reqs))
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}

		ranks := make([]string, len(ev.PerplexityByRank))
		for i, p := range ev.PerplexityByRank {
			ranks[i] = fmt.Sprintf("%.3f", p)
		}
		fmt.Printf("%-8s %14.4f %12.4f %10.4f  [%s]  (%v)\n",
			ev.Model, ev.LogLikelihood, ev.Perplexity, pCTR, strings.Join(ranks, " "),
			time.Since(start).Round(time.Millisecond))

		if *out != "" && strings.EqualFold(name, snapTarget) {
			// Atomic (temp file, then rename): a serving process never
			// loads a half-written file.
			if err := snapshot.WriteFileAtomic(*out, m.Save); err != nil {
				log.Fatalf("-o %s: %v", *out, err)
			}
			log.Printf("wrote %s snapshot to %s (serve with: microserve -load %s=%s)",
				m.Name(), *out, snapTarget, *out)
		}
	}

	// Model-free baseline for reference.
	ctr := clickmodel.MeanCTRByPosition(test)
	parts := make([]string, len(ctr))
	var mean float64
	for i, c := range ctr {
		parts[i] = fmt.Sprintf("%.4f", c)
		mean += c
	}
	if len(ctr) > 0 {
		mean /= float64(len(ctr))
	}
	fmt.Printf("\nempirical CTR by position: [%s] (mean %.4f)\n", strings.Join(parts, " "), mean)
}

// convertToV2 rewrites an existing artifact as a current one, in
// place: it is loaded as a stream is (checked, foreign vocabularies
// re-placed) and exported again, which gives a current artifact back
// byte for byte — safe to run twice.
func convertToV2(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	eng := engine.New()
	info, err := eng.LoadSnapshot("", f)
	if err != nil {
		return err
	}
	return snapshot.WriteFileAtomic(path, func(w io.Writer) error { return eng.SaveSnapshot(info.Ref(), w) })
}
