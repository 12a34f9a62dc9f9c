// Serving: the train-offline / serve-online lifecycle in one program.
// An "offline" engine fits a click model and a micro-browsing model
// and snapshots both to disk; a separate "serving" engine loads the
// artifacts, answers scoring requests, hot-swaps a refreshed artifact
// in under version addressing, and rolls it back — exactly what
// cmd/microserve does over HTTP, minus the network.
//
// Run with: go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	micro "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "microbrowsing-serving-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- offline: simulate a log, fit, snapshot ---------------------
	lex := micro.DefaultLexicon()
	corpus := micro.GenerateCorpus(micro.CorpusConfig{Seed: 51, Groups: 300}, lex)
	sim := micro.NewSimulator(micro.SimConfig{Seed: 52})
	sessions := sim.Sessions(corpus, 12000, 4)

	offline := micro.NewEngine()
	compiled, err := micro.CompileSessions(sessions)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := offline.Fit("pbm", compiled, 10); err != nil {
		log.Fatal(err)
	}
	offline.UseMicro(sim.TrueModel(lex)) // the planted ground-truth micro model

	pbmPath := filepath.Join(dir, "pbm.bin")
	microPath := filepath.Join(dir, "micro.bin")
	for ref, path := range map[string]string{"pbm": pbmPath, "micro": microPath} {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := offline.SaveSnapshot(ref, f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		st, _ := os.Stat(path)
		fmt.Printf("snapshotted %-5s -> %s (%d bytes)\n", ref, filepath.Base(path), st.Size())
	}

	// --- online: a fresh engine serves the artifacts ----------------
	serving := micro.NewEngine(micro.WithWorkers(4))
	for _, path := range []string{pbmPath, microPath} {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		info, err := serving.LoadSnapshot("", f) // install under the artifact's own name
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %s: %d params, source=%s\n", info.Ref(), info.Params, info.Source)
	}

	ctx := context.Background()
	session := sessions[0]
	creative := corpus.Groups[0].Creatives[0]
	resps := serving.ScoreBatch(ctx, []micro.ScoreRequest{
		{ID: "macro", Model: "pbm", Session: &session},
		{ID: "micro", Model: "micro", Lines: creative.Lines},
	})
	for _, r := range resps {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("scored %-5s via %s@%d: CTR %.4f\n", r.ID, r.Model, r.ModelVersion, r.CTR)
	}

	// --- hot swap: refit offline, ship the new artifact -------------
	refresh, err := micro.CompileSessions(sessions[:6000])
	if err != nil {
		log.Fatal(err)
	}
	if _, err := offline.Fit("pbm", refresh, 3); err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(pbmPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := offline.SaveSnapshot("pbm", f); err != nil {
		log.Fatal(err)
	}
	f.Close()

	f, err = os.Open(pbmPath)
	if err != nil {
		log.Fatal(err)
	}
	info, err := serving.LoadSnapshot("pbm", f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhot-swapped to %s; versions now installed:\n", info.Ref())
	for _, mi := range serving.Models() {
		fmt.Printf("  %-8s latest=%-5v params=%d source=%s\n", mi.Ref(), mi.Latest, mi.Params, mi.Source)
	}

	// Bare names serve the new version; pinned references still reach
	// the old one.
	v2, _ := serving.ScoreCTR(ctx, micro.ScoreRequest{Model: "pbm", Session: &session})
	v1, _ := serving.ScoreCTR(ctx, micro.ScoreRequest{Model: "pbm@1", Session: &session})
	fmt.Printf("pbm (latest) -> v%d CTR %.4f | pbm@1 -> v%d CTR %.4f\n",
		v2.ModelVersion, v2.CTR, v1.ModelVersion, v1.CTR)

	// --- rollback: un-ship the new artifact -------------------------
	back, err := serving.Rollback("pbm")
	if err != nil {
		log.Fatal(err)
	}
	after, _ := serving.ScoreCTR(ctx, micro.ScoreRequest{Model: "pbm", Session: &session})
	fmt.Printf("rolled back to %s; bare \"pbm\" now serves v%d (CTR %.4f)\n",
		back.Ref(), after.ModelVersion, after.CTR)
}
