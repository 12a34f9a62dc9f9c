// Rewrite mining: build the feature statistics database from a simulated
// sponsored-search corpus and print the phrase rewrites with the largest
// click-through-rate lift — the paper's "database of phrase rewrites with
// corresponding click-through rate lift scores" (Section IV-A).
//
// Run with: go run ./examples/rewritemining
package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	micro "repro"
)

func main() {
	// Simulate a corpus of adgroups with alternative creatives, serve
	// impressions with the micro-browsing user, and extract statistics.
	corpus := micro.GenerateCorpus(micro.CorpusConfig{Seed: 7, Groups: 3000}, micro.DefaultLexicon())
	sim := micro.NewSimulator(micro.SimConfig{Seed: 8, Impressions: 1200})
	groups := sim.Run(corpus)

	ex := micro.NewExtractor()
	db := ex.BuildDB(groups)
	fmt.Printf("statistics database: %d features from %d adgroups\n\n", db.Len(), len(groups))

	// Collect directed rewrites with enough evidence, ranked by odds of
	// lifting CTR.
	type minedRewrite struct {
		key   string
		from  string
		to    string
		odds  float64
		count float64
	}
	var mined []minedRewrite
	for key := range db.Stats {
		if !strings.HasPrefix(key, "rw|") {
			continue // not a rewrite key
		}
		if db.Count(key) < 12 {
			continue // too little evidence to report
		}
		from, to, ok := splitRewrite(key)
		if !ok {
			continue
		}
		mined = append(mined, minedRewrite{
			key: key, from: from, to: to,
			odds: db.OddsRatio(key), count: db.Count(key),
		})
	}
	sort.Slice(mined, func(i, j int) bool {
		if mined[i].odds != mined[j].odds {
			return mined[i].odds > mined[j].odds
		}
		return mined[i].key < mined[j].key
	})

	fmt.Println("top rewrites by CTR-lift odds (apply right-to-left: prefer FROM over TO):")
	fmt.Printf("%-28s %-28s %8s %7s\n", "FROM (better)", "TO (worse)", "odds", "n")
	shown := 0
	for _, m := range mined {
		if m.odds < 1 {
			break
		}
		fmt.Printf("%-28s %-28s %8.2f %7.0f\n", m.from, m.to, m.odds, m.count)
		shown++
		if shown >= 15 {
			break
		}
	}

	fmt.Println("\nbottom rewrites (these edits hurt CTR):")
	for i := len(mined) - 1; i >= 0 && i >= len(mined)-5; i-- {
		m := mined[i]
		fmt.Printf("%-28s %-28s %8.2f %7.0f\n", m.from, m.to, m.odds, m.count)
	}

	// The mined database is directly servable: MicroModelFromStats
	// turns its term statistics into a micro-browsing scorer, and the
	// engine batch-scores candidate snippets with it — here the paper's
	// Section IV-A pair.
	eng := micro.NewEngine(micro.WithWorkers(4))
	eng.UseMicro(micro.MicroModelFromStats(db, micro.DefaultAttention(), 8))
	resps := eng.ScoreBatch(context.Background(), []micro.ScoreRequest{
		{ID: "R", Lines: []string{"XYZ Airlines", "Find cheap flights to New York.", "No reservation costs. Great rates"}},
		{ID: "S", Lines: []string{"XYZ Airlines", "Flying to New York? Get discounts.", "No reservation costs. Great rates!"}},
	})
	fmt.Println("\nserving the database through the scoring engine (Section IV-A pair):")
	for _, resp := range resps {
		if resp.Err != nil {
			panic(resp.Err)
		}
		fmt.Printf("  snippet %s: predicted CTR %.4f (expected log-prob %+.3f)\n",
			resp.ID, resp.CTR, resp.Score)
	}
	fmt.Printf("  score(R→S) = %+.4f under the mined statistics\n", resps[0].Score-resps[1].Score)
}

// splitRewrite parses a "rw|from\x1fto" key.
func splitRewrite(key string) (from, to string, ok bool) {
	body := strings.TrimPrefix(key, "rw|")
	parts := strings.SplitN(body, "\x1f", 2)
	if len(parts) != 2 {
		return "", "", false
	}
	return parts[0], parts[1], true
}
