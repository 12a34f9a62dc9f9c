// Command experiments reproduces the paper's evaluation artifacts —
// Table 2 (feature ablation), Figure 3 (learned term position weights)
// and Table 4 (top vs RHS placement) — on the synthetic ADCORPUS, and
// adds an engine-backed CTR-prediction report (-run ctr) comparing a
// registry-selected macro click model against the micro-browsing
// scorer on the same simulated traffic.
//
// Usage:
//
//	experiments [-run table2|figure3|table4|ctr|all] [-groups N]
//	            [-impressions N] [-folds K] [-seed S]
//	            [-model NAME] [-workers N] [-iters N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/adcorpus"
	"repro/internal/clickmodel"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/serp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	run := flag.String("run", "all", "experiment to run: table2, figure3, table4, ctr or all")
	groups := flag.Int("groups", 0, "adgroups in the synthetic corpus (default 1200)")
	impressions := flag.Int("impressions", 0, "impressions per creative (default 800)")
	folds := flag.Int("folds", 0, "cross-validation folds (default 10)")
	seed := flag.Int64("seed", 0, "base random seed (default 2019)")
	model := flag.String("model", "pbm", "macro click model for -run ctr (registry name)")
	iters := flag.Int("iters", 0, "EM iterations for -run ctr iterative models (0 = model default)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "engine-wide cap on batch-scoring strands (the calling goroutine always scores)")
	flag.Parse()

	// Validate the model name up front, whatever the run: a typo in a
	// config string should fail before minutes of corpus building.
	if _, err := clickmodel.New(*model); err != nil {
		log.Fatal(err)
	}

	setup := experiments.DefaultSetup()
	if *groups > 0 {
		setup.Groups = *groups
	}
	if *impressions > 0 {
		setup.Impressions = *impressions
	}
	if *folds > 0 {
		setup.Folds = *folds
	}
	if *seed != 0 {
		setup.Seed = *seed
	}

	start := time.Now()
	switch *run {
	case "table2":
		res, err := experiments.Table2(setup)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatTable2(res))
	case "figure3":
		fig, err := experiments.Figure3(setup)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatFigure3(fig))
	case "table4":
		rows, err := experiments.Table4(setup)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatTable4(rows))
	case "ctr":
		runCTR(setup, *model, *workers, *iters)
	case "all":
		res, err := experiments.Table2(setup)
		if err != nil {
			log.Fatal(err)
		}
		fig, err := experiments.Figure3(setup)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := experiments.Table4(setup)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatSummary(res, fig, rows))
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		flag.Usage()
		os.Exit(2)
	}
	log.Printf("done in %v", time.Since(start).Round(time.Millisecond))
}

// runCTR is the unified-engine report: the same simulated traffic
// scored at both browsing levels — the named macro model over held-out
// sessions, and the ground-truth micro-browsing model over the
// creatives those sessions showed.
func runCTR(setup experiments.Setup, model string, workers, iters int) {
	ctx := context.Background()
	lex := adcorpus.DefaultLexicon()
	corpus := adcorpus.Generate(adcorpus.Config{Seed: setup.Seed, Groups: setup.Groups}, lex)
	sim := serp.New(serp.Config{Seed: setup.Seed + 1})
	sessions := sim.Sessions(corpus, 20000, 4)
	split := len(sessions) * 4 / 5
	train, test := sessions[:split], sessions[split:]

	eng := engine.New(engine.WithWorkers(workers), engine.WithDefaultModel(model))
	eng.UseMicro(sim.TrueModel(lex))

	compiled, err := clickmodel.Compile(train)
	if err != nil {
		log.Fatal(err)
	}
	fitted, err := eng.Fit(model, compiled, iters)
	if err != nil {
		log.Fatal(err)
	}
	ev := clickmodel.Evaluate(fitted, test)

	// Macro: held-out sessions through the batch API.
	macroReqs := make([]engine.Request, len(test))
	for i := range test {
		macroReqs[i] = engine.Request{Session: &test[i]}
	}
	macroStart := time.Now()
	pCTR, err := engine.MeanCTR(eng.ScoreBatch(ctx, macroReqs))
	if err != nil {
		log.Fatal(err)
	}
	macroElapsed := time.Since(macroStart)

	var clicks, positions float64
	for _, s := range test {
		for _, c := range s.Clicks {
			positions++
			if c {
				clicks++
			}
		}
	}

	// Micro: every creative of the corpus through the same API.
	var microReqs []engine.Request
	for gi := range corpus.Groups {
		for ci := range corpus.Groups[gi].Creatives {
			c := &corpus.Groups[gi].Creatives[ci]
			microReqs = append(microReqs, engine.Request{ID: c.ID, Model: engine.NameMicro, Lines: c.Lines})
		}
	}
	microStart := time.Now()
	microCTR, err := engine.MeanCTR(eng.ScoreBatch(ctx, microReqs))
	if err != nil {
		log.Fatal(err)
	}
	microElapsed := time.Since(microStart)

	fmt.Printf("engine CTR report (%d workers)\n", workers)
	fmt.Printf("  macro model %-8s mean pCTR %.4f | empirical %.4f | perplexity %.4f | %d sessions in %v (%.0f/s)\n",
		fitted.Name(), pCTR, clicks/positions, ev.Perplexity,
		len(macroReqs), macroElapsed.Round(time.Millisecond),
		float64(len(macroReqs))/macroElapsed.Seconds())
	fmt.Printf("  micro model %-8s mean pCTR %.4f (examined-impression CTR) | %d creatives in %v (%.0f/s)\n",
		"micro", microCTR, len(microReqs), microElapsed.Round(time.Millisecond),
		float64(len(microReqs))/microElapsed.Seconds())
}
