// Command snippetclf trains and cross-validates one model on a freshly
// simulated corpus. -model resolves in two namespaces:
//
//   - M1..M6 select a snippet classifier variant (Table 2 ablations),
//     reporting the paper's metrics (recall / precision / F-measure)
//     plus accuracy and AUC;
//   - any click-model registry name (pbm, cascade, dcm, ubm, bbm, ccm,
//     dbn, sdbn, gcm, sum) fits that macro model on sessions simulated
//     from the same corpus and reports held-out perplexity plus
//     engine-predicted CTR through the unified scoring engine.
//
// Usage:
//
//	snippetclf -model M6 -groups 1200 -impressions 1500 -folds 10
//	snippetclf -model pbm -groups 800 -workers 8
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"strings"
	"time"

	"repro/internal/adcorpus"
	"repro/internal/classifier"
	"repro/internal/clickmodel"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/serp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("snippetclf: ")

	model := flag.String("model", "M6", "classifier variant M1..M6, or a click-model registry name")
	groups := flag.Int("groups", 800, "adgroups in the evaluation corpus")
	impressions := flag.Int("impressions", 800, "impressions per creative")
	folds := flag.Int("folds", 10, "cross-validation folds")
	seed := flag.Int64("seed", 2019, "base random seed")
	rhs := flag.Bool("rhs", false, "simulate right-hand-side placement instead of top")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "engine-wide cap on batch-scoring strands (the calling goroutine always scores)")
	flag.Parse()

	setup := experiments.Setup{
		Seed:        *seed,
		Groups:      *groups,
		Impressions: *impressions,
		Folds:       *folds,
	}
	if *rhs {
		setup.Placement = serp.RHS
	}

	// Resolve -model: classifier spec names first, then the click-model
	// registry.
	for _, s := range classifier.Specs() {
		if strings.EqualFold(s.Name, *model) {
			runClassifier(s, setup, *folds, *seed)
			return
		}
	}
	if _, err := clickmodel.New(*model); err != nil {
		specs := make([]string, 0, len(classifier.Specs()))
		for _, s := range classifier.Specs() {
			specs = append(specs, s.Name)
		}
		log.Fatalf("unknown model %q (classifiers: %s; click models: %s)",
			*model, strings.Join(specs, ", "), strings.Join(clickmodel.Names(), ", "))
	}
	runClickModel(*model, setup, *workers)
}

// runClassifier is the paper's Table-2 path: cross-validate one
// ablation variant.
func runClassifier(spec classifier.ModelSpec, setup experiments.Setup, folds int, seed int64) {
	start := time.Now()
	data := experiments.BuildData(setup)
	log.Printf("corpus: %d labelled pairs, stats DB with %d features (built in %v)",
		len(data.Pairs), data.DB.Len(), time.Since(start).Round(time.Millisecond))

	res, err := classifier.CrossValidate(spec, data.Pairs, data.DB, folds, seed+2, classifier.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %s\n", spec.Name, spec.Description)
	fmt.Printf("  instances:     %d\n", res.Instances)
	fmt.Printf("  rel features:  %d\n", res.RelFeatures)
	if spec.UsePosition {
		fmt.Printf("  pos features:  %d\n", res.PosFeatures)
	}
	fmt.Printf("  recall:        %.1f%%\n", res.Mean.Recall*100)
	fmt.Printf("  precision:     %.1f%%\n", res.Mean.Precision*100)
	fmt.Printf("  f-measure:     %.3f\n", res.Mean.F1)
	fmt.Printf("  accuracy:      %.1f%%\n", res.Mean.Accuracy*100)
	fmt.Printf("  auc:           %.3f\n", res.Mean.AUC)
	log.Printf("done in %v", time.Since(start).Round(time.Millisecond))
}

// runClickModel is the macro path: fit the named registry model on
// sessions simulated from the same corpus and score the held-out log
// through the engine.
func runClickModel(name string, setup experiments.Setup, workers int) {
	start := time.Now()
	corpus := adcorpus.Generate(adcorpus.Config{Seed: setup.Seed, Groups: setup.Groups}, adcorpus.DefaultLexicon())
	sim := serp.New(serp.Config{Seed: setup.Seed + 1, Placement: setup.Placement})
	sessions := sim.Sessions(corpus, 20000, 4)
	split := len(sessions) * 4 / 5
	train, test := sessions[:split], sessions[split:]
	log.Printf("corpus: %d sessions (%d train / %d test) at %s placement",
		len(sessions), len(train), len(test), setup.Placement)

	eng := engine.New(engine.WithWorkers(workers), engine.WithDefaultModel(name))
	compiled, err := clickmodel.Compile(train)
	if err != nil {
		log.Fatal(err)
	}
	fitted, err := eng.Fit(name, compiled, 0)
	if err != nil {
		log.Fatal(err)
	}
	ev := clickmodel.Evaluate(fitted, test)

	reqs := make([]engine.Request, len(test))
	for i := range test {
		reqs[i] = engine.Request{Session: &test[i]}
	}
	pCTR, err := engine.MeanCTR(eng.ScoreBatch(context.Background(), reqs))
	if err != nil {
		log.Fatal(err)
	}

	var clicks, positions float64
	for _, s := range test {
		for _, c := range s.Clicks {
			positions++
			if c {
				clicks++
			}
		}
	}

	fmt.Printf("%s: macro click model (unified engine, %d workers)\n", fitted.Name(), workers)
	fmt.Printf("  sessions:       %d held out\n", ev.Sessions)
	fmt.Printf("  mean LL:        %.4f\n", ev.LogLikelihood)
	fmt.Printf("  perplexity:     %.4f\n", ev.Perplexity)
	fmt.Printf("  mean pCTR:      %.4f\n", pCTR)
	fmt.Printf("  empirical CTR:  %.4f\n", clicks/positions)
	log.Printf("done in %v", time.Since(start).Round(time.Millisecond))
}
