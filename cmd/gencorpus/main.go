// Command gencorpus generates a synthetic sponsored-search corpus (the
// ADCORPUS substitute) and optionally simulates serving to attach
// click/impression statistics.
//
// Usage:
//
//	gencorpus -groups 1000 -seed 7 -out corpus.jsonl
//	gencorpus -groups 1000 -simulate -impressions 1500 -out stats.jsonl
//	gencorpus -groups 1000 -model dbn -workers 8
//
// Without -simulate the output is one JSON adgroup per line with the
// creative texts and ground-truth phrase slots. With -simulate the
// output is one JSON adgroup per line with per-creative impressions and
// clicks from the micro-browsing user simulator.
//
// After writing, the corpus is scored through the unified engine with
// the -model scorer ("micro" scores every creative's snippet text; a
// macro registry name such as "pbm" is fitted on a simulated session
// log and scores held-out sessions) and a summary goes to stderr.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/adcorpus"
	"repro/internal/clickmodel"
	"repro/internal/engine"
	"repro/internal/serp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gencorpus: ")

	groups := flag.Int("groups", 1000, "number of adgroups")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "-", "output path ('-' for stdout)")
	simulate := flag.Bool("simulate", false, "simulate serving and emit stats-filled adgroups")
	impressions := flag.Int("impressions", 1500, "impressions per creative when simulating")
	rhs := flag.Bool("rhs", false, "simulate right-hand-side placement instead of top")
	model := flag.String("model", engine.NameMicro, "scoring model for the summary: micro or a registry click model")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "engine-wide cap on batch-scoring strands (the calling goroutine always scores)")
	flag.Parse()

	if *model != engine.NameMicro {
		if _, err := clickmodel.New(*model); err != nil {
			log.Fatal(err)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}

	lex := adcorpus.DefaultLexicon()
	corpus := adcorpus.Generate(adcorpus.Config{Seed: *seed, Groups: *groups}, lex)

	placement := serp.Top
	if *rhs {
		placement = serp.RHS
	}
	sim := serp.New(serp.Config{Seed: *seed + 1, Impressions: *impressions, Placement: placement})

	if !*simulate {
		if err := corpus.SaveJSONL(w); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d adgroups", len(corpus.Groups))
		scoreSummary(corpus, sim, lex, *model, *workers)
		return
	}

	ags := sim.Run(corpus)

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var pairs int
	for i := range ags {
		if err := enc.Encode(&ags[i]); err != nil {
			log.Fatal(err)
		}
		pairs += len(ags[i].Pairs(1))
	}
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "gencorpus: wrote %d adgroups (%d labelled pairs) at %s placement\n",
		len(ags), pairs, placement)
	scoreSummary(corpus, sim, lex, *model, *workers)
}

// scoreSummary runs the generated corpus through the unified scoring
// engine and reports mean predicted CTR and throughput on stderr.
func scoreSummary(corpus *adcorpus.Corpus, sim *serp.Simulator, lex *adcorpus.Lexicon, model string, workers int) {
	ctx := context.Background()
	eng := engine.New(engine.WithWorkers(workers), engine.WithDefaultModel(model))

	var reqs []engine.Request
	if model == engine.NameMicro {
		eng.UseMicro(sim.TrueModel(lex))
		for gi := range corpus.Groups {
			for ci := range corpus.Groups[gi].Creatives {
				c := &corpus.Groups[gi].Creatives[ci]
				reqs = append(reqs, engine.Request{ID: c.ID, Lines: c.Lines})
			}
		}
	} else {
		sessions := sim.Sessions(corpus, 4000, 4)
		split := len(sessions) * 4 / 5
		compiled, err := clickmodel.Compile(sessions[:split])
		if err != nil {
			log.Fatal(err)
		}
		if _, err := eng.Fit(model, compiled, 0); err != nil {
			log.Fatal(err)
		}
		held := sessions[split:]
		for i := range held {
			reqs = append(reqs, engine.Request{Session: &held[i]})
		}
	}

	if len(reqs) == 0 {
		log.Printf("engine summary skipped: nothing to score")
		return
	}
	start := time.Now()
	mean, err := engine.MeanCTR(eng.ScoreBatch(ctx, reqs))
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "gencorpus: engine scored %d requests with %q (%d workers) in %v (%.0f/s), mean predicted CTR %.4f\n",
		len(reqs), model, workers, elapsed.Round(time.Millisecond),
		float64(len(reqs))/elapsed.Seconds(), mean)
}
