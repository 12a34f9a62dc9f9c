// Command loadgen replays simulated SERP feedback at a running
// microserve instance — the one job no other tool here does: the
// simulator's two-layer user model produces sessions (and, with
// -snippets, aggregated snippet feedback), and loadgen batches them into
// POST /v1/feedback calls, so an online learner has traffic to fold,
// log to its WAL and publish from. scripts/serve_smoke.sh drives its
// publish → kill -9 → replay loop with it, and README's online
// walkthrough uses it by hand.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8377 -sessions 20000
//	loadgen -sessions 50000 -batch 500 -workers 8 -snippets 2
//
// loadgen measures nothing. Latency, goodput and reply checking — of
// score and optimize traffic over both wire protocols, and of feedback
// beside them — are the benchmark's (benchmark/, open-loop, every reply
// checked): bash benchmark/run.sh --workload mixed_online.
//
// The exit status is non-zero when the server rejects traffic for any
// reason other than saturation (429 counts as drops, not failure).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adcorpus"
	"repro/internal/clickmodel"
	"repro/internal/serp"
)

// feedbackBody mirrors the server's /v1/feedback wire shape.
type feedbackBody struct {
	Sessions []clickmodel.Session `json:"sessions,omitempty"`
	Snippets []snippetEvent       `json:"snippets,omitempty"`
}

type snippetEvent struct {
	Lines       []string `json:"lines"`
	Impressions int      `json:"impressions"`
	Clicks      int      `json:"clicks"`
}

type feedbackReply struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	Invalid  int `json:"invalid"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	addr := flag.String("addr", "http://127.0.0.1:8377", "microserve base URL")
	nSessions := flag.Int("sessions", 10000, "sessions to replay")
	batch := flag.Int("batch", 200, "sessions per feedback POST")
	snippets := flag.Int("snippets", 0, "snippet feedback events per batch (micro model fuel)")
	impressions := flag.Int("impressions", 50, "impressions aggregated into each snippet event")
	workers := flag.Int("workers", 4, "concurrent HTTP senders")
	clients := flag.Int("clients", 1, "distinct X-Client-ID identities to spread traffic across (0 = no header)")
	groups := flag.Int("groups", 200, "adgroups backing the simulation")
	ads := flag.Int("ads", 4, "ads per session")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()

	corpus := adcorpus.Generate(adcorpus.Config{Seed: *seed, Groups: *groups}, adcorpus.DefaultLexicon())
	sim := serp.New(serp.Config{Seed: *seed + 1})

	client := &http.Client{Timeout: 30 * time.Second}
	var accepted, dropped, invalid, limited, httpErrs atomic.Uint64

	// One generator feeds request bodies to the sender pool: the
	// simulator's rng is not safe for concurrent draws, and a single
	// producer keeps the replayed traffic deterministic per seed.
	type job struct {
		client string // X-Client-ID header ("" = none)
		body   []byte
	}
	jobs := make(chan job, *workers)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				req, err := http.NewRequest(http.MethodPost, *addr+"/v1/feedback", bytes.NewReader(j.body))
				if err != nil {
					log.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				if j.client != "" {
					req.Header.Set("X-Client-ID", j.client)
				}
				resp, err := client.Do(req)
				if err != nil {
					httpErrs.Add(1)
					log.Printf("feedback: %v", err)
					continue
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					// Rate-limited or saturated: both are backpressure,
					// count the batch as dropped and move on.
					limited.Add(1)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					continue
				}
				var fr feedbackReply
				if err := json.NewDecoder(resp.Body).Decode(&fr); err == nil {
					accepted.Add(uint64(fr.Accepted))
					dropped.Add(uint64(fr.Dropped))
					invalid.Add(uint64(fr.Invalid))
				}
				if resp.StatusCode != http.StatusOK {
					httpErrs.Add(1)
					log.Printf("feedback status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}

	start := time.Now()
	sent, batches := 0, 0
	for sent < *nSessions {
		n := *batch
		if left := *nSessions - sent; n > left {
			n = left
		}
		fb := feedbackBody{Sessions: make([]clickmodel.Session, 0, n)}
		for i := 0; i < n; i++ {
			fb.Sessions = append(fb.Sessions, sim.Session(corpus, *ads))
		}
		for i := 0; i < *snippets; i++ {
			lines, clicks := sim.SnippetFeedback(corpus, *impressions)
			fb.Snippets = append(fb.Snippets, snippetEvent{Lines: lines, Impressions: *impressions, Clicks: clicks})
		}
		body, err := json.Marshal(fb)
		if err != nil {
			log.Fatal(err)
		}
		id := ""
		if *clients > 0 {
			id = fmt.Sprintf("loadgen-%d", batches%*clients)
		}
		jobs <- job{client: id, body: body}
		sent += n
		batches++
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	rate := float64(sent) / elapsed.Seconds()
	fmt.Printf("replayed %d sessions in %v (%.0f sessions/s): accepted %d, dropped %d, invalid %d, rate-limited batches %d\n",
		sent, elapsed.Round(time.Millisecond), rate, accepted.Load(), dropped.Load(), invalid.Load(), limited.Load())
	if httpErrs.Load() > 0 {
		log.Printf("%d transport/status errors", httpErrs.Load())
		os.Exit(1)
	}
}
