// Click models: fit the macro browsing-model family of the paper's
// Section II to a simulated SERP log through the unified scoring
// engine — models are selected by registry name, trained with
// Engine.Fit, and score held-out sessions through ScoreBatch — then
// print the examination curves they infer, showing how the macro-level
// position bias (which the micro-browsing model refines to the term
// level) is estimated in practice.
//
// Run with: go run ./examples/clickmodels
package main

import (
	"context"
	"fmt"
	"strings"

	micro "repro"
	"repro/internal/clickmodel"
)

func main() {
	// Simulate SERP sessions: four ads per page, macro examination decays
	// with slot, clicks decided by the ground-truth micro-browsing user.
	corpus := micro.GenerateCorpus(micro.CorpusConfig{Seed: 31, Groups: 400}, micro.DefaultLexicon())
	sim := micro.NewSimulator(micro.SimConfig{Seed: 32})
	sessions := sim.Sessions(corpus, 24000, 4)
	train, test := sessions[:20000], sessions[20000:]

	fmt.Printf("fitted on %d sessions, evaluated on %d\n\n", len(train), len(test))
	fmt.Printf("%-8s %10s %12s %10s\n", "model", "mean LL", "perplexity", "mean pCTR")

	// The engine resolves config strings against the click-model
	// registry; micro.ClickModelNames() would list all ten, we fit the
	// fast core of the family.
	names := []string{"pbm", "cascade", "dcm", "ubm", "dbn", "sdbn"}

	eng := micro.NewEngine(micro.WithWorkers(4))
	reqs := make([]micro.ScoreRequest, len(test))
	for i := range test {
		reqs[i] = micro.ScoreRequest{Session: &test[i]}
	}

	// Intern the training log once; every model fits from it.
	compiled, err := micro.CompileSessions(train)
	if err != nil {
		panic(err)
	}
	fitted := make([]micro.ClickModel, 0, len(names))
	for _, name := range names {
		m, err := eng.Fit(name, compiled, 0)
		if err != nil {
			panic(err)
		}
		fitted = append(fitted, m)
		ev := micro.EvaluateClickModel(m, test)

		// Held-out CTR prediction through the engine's batch API.
		for i := range reqs {
			reqs[i].Model = name
		}
		pCTR, err := micro.MeanCTR(eng.ScoreBatch(context.Background(), reqs))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s %10.4f %12.4f %10.4f\n", ev.Model, ev.LogLikelihood, ev.Perplexity, pCTR)
	}

	// Examination curves: how strongly each model believes lower slots
	// are seen. The simulator's true macro curve is 0.90/0.65/0.45/0.30.
	fmt.Println("\ninferred examination probability by slot (sample session):")
	sample := test[0]
	for _, m := range fitted {
		examiner, ok := m.(clickmodel.Examiner)
		if !ok {
			continue
		}
		probs := examiner.ExaminationProbs(sample)
		parts := make([]string, len(probs))
		for i, p := range probs {
			parts[i] = fmt.Sprintf("%.2f", p)
		}
		fmt.Printf("%-8s [%s]\n", m.Name(), strings.Join(parts, " "))
	}
	fmt.Println("\ntrue macro curve: [0.90 0.65 0.45 0.30]")
	fmt.Println("(PBM separates position from attractiveness up to a scale factor;")
	fmt.Println("cascade-family models explain the same decay through abandonment)")
}
