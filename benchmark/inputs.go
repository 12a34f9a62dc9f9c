package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strconv"

	"repro/internal/adcorpus"
	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmap"
	"repro/internal/serp"
	"repro/internal/server/binproto"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/textproc"
)

// Wire shapes of the JSON surface, mirrored here because the server's
// own structs are unexported. Field names and tags must match
// internal/server exactly (the server rejects unknown fields).
type scoreBody struct {
	Requests []engine.Request `json:"requests"`
}

type scoreReplyBody struct {
	Responses []engine.Response `json:"responses"`
}

type feedbackBody struct {
	Sessions []clickmodel.Session  `json:"sessions,omitempty"`
	Snippets []stream.SnippetEvent `json:"snippets,omitempty"`
}

type feedbackReply struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	Invalid  int `json:"invalid"`
}

// optExpect is the reference answer of one optimize request.
type optExpect struct {
	base   core.CandidateScore
	best   int // -1 when the base wins
	ranked []binproto.RankedCandidate
}

// inputs is everything a run derives from (workload, seed): the
// corpus, the micro artifact on disk, the request pools the senders
// cycle through, and the reference answers the checker compares
// against. The server only ever sees what is generated here.
type inputs struct {
	spec     *workloadSpec
	seed     int64
	corpus   *adcorpus.Corpus
	artifact string // v2 artifact path served via -load
	art      *mmap.Artifact
	ref      *core.CompiledModel // reference scorer over the same artifact bytes

	scoreFrames [][]engine.Request      // score_mbsp / score_json
	scoreRef    [][]core.CandidateScore // expected (ctr, score) per frame item
	optReqs     []binproto.OptimizeRequest
	optRef      []optExpect
	feedback    []feedbackBody     // mixed_online connection A
	mixedFrames [][]engine.Request // mixed_online connection B

	streamHash string
}

// close releases the reference artifact mapping.
func (in *inputs) close() {
	if in.art != nil {
		in.art.Release()
		in.art = nil
	}
}

// buildInputs generates the workload's inputs from the seed and writes
// the micro artifact under dir. The same (workload, seed) always
// produces the same request stream (streamHash pins it).
func buildInputs(spec *workloadSpec, seed int64, dir string) (*inputs, error) {
	in := &inputs{spec: spec, seed: seed}
	in.corpus = adcorpus.Generate(adcorpus.Config{Seed: seed, Groups: corpusGroups}, adcorpus.DefaultLexicon())
	sim := serp.New(serp.Config{Seed: seed + 1})
	rng := rand.New(rand.NewSource(seed + 2))

	// Only the compiled artifact outlives this function: the 200 000-entry
	// map would otherwise sit in the generator's heap for the whole run.
	in.artifact = filepath.Join(dir, "micro-v2.bin")
	compiled := plantedModel(seed).Compile()
	if err := snapshot.WriteFileAtomic(in.artifact, func(w io.Writer) error { return compiled.SaveV2(w) }); err != nil {
		return nil, fmt.Errorf("writing micro artifact: %w", err)
	}
	var err error
	if in.art, err = mmap.Open(in.artifact); err != nil {
		return nil, err
	}
	if in.ref, err = core.CompiledFromArtifact(in.art.V2Artifact); err != nil {
		in.close()
		return nil, err
	}

	h := sha256.New()
	var buf []byte
	switch spec.Name {
	case "score_mbsp", "score_json":
		in.buildScoreFrames(rng)
		for _, f := range in.scoreFrames {
			if buf, err = binproto.AppendRequests(buf[:0], f); err != nil {
				return nil, err
			}
			h.Write(buf)
		}
	case "optimize_mbsp":
		in.buildOptimize(rng)
		for i := range in.optReqs {
			if buf, err = binproto.AppendOptimize(buf[:0], &in.optReqs[i]); err != nil {
				return nil, err
			}
			h.Write(buf)
		}
	case "mixed_online":
		in.buildMixed(sim, rng)
		for i := range in.feedback {
			b, err := json.Marshal(&in.feedback[i])
			if err != nil {
				return nil, err
			}
			h.Write(b)
		}
		for _, f := range in.mixedFrames {
			if buf, err = binproto.AppendRequests(buf[:0], f); err != nil {
				return nil, err
			}
			h.Write(buf)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", spec.Name)
	}
	in.streamHash = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// plantedModel is the simulator's ground-truth micro model for the seed,
// in its fitting form. It has only the lexicon's few dozen phrases; real
// relevance tables are orders of magnitude larger, so it is padded with
// terms traffic never contains until the vocabulary, offsets and
// relevance arrays no longer fit in L2.
func plantedModel(seed int64) *core.Model {
	m := serp.New(serp.Config{Seed: seed + 1}).TrueModel(adcorpus.DefaultLexicon())
	for i := 0; len(m.Relevance) < modelTerms; i++ {
		term := "pad" + strconv.Itoa(i)
		if i%3 != 0 {
			term += " filler" + strconv.Itoa(i%977)
		}
		m.Relevance[term] = 0.5 + float64(i%97)/400
	}
	return m
}

func (in *inputs) randomCreative(rng *rand.Rand) *adcorpus.Creative {
	g := &in.corpus.Groups[rng.Intn(len(in.corpus.Groups))]
	return &g.Creatives[rng.Intn(len(g.Creatives))]
}

// buildScoreFrames draws poolFrames batches of scoreBatch creatives and
// precomputes every snippet's reference CTR and score.
func (in *inputs) buildScoreFrames(rng *rand.Rand) {
	in.scoreFrames = make([][]engine.Request, poolFrames)
	in.scoreRef = make([][]core.CandidateScore, poolFrames)
	var sc textproc.Scratch
	for f := range in.scoreFrames {
		reqs := make([]engine.Request, scoreBatch)
		ref := make([]core.CandidateScore, scoreBatch)
		for j := range reqs {
			c := in.randomCreative(rng)
			reqs[j] = engine.Request{ID: reqID(f, j), Model: engine.NameMicro, Lines: c.Lines, MaxN: maxN}
			ref[j].CTR, ref[j].Score = in.ref.ScoreSnippet(c.Lines, maxN, &sc)
		}
		in.scoreFrames[f], in.scoreRef[f] = reqs, ref
	}
}

// buildOptimize mixes one adgroup's creative lines into 128 candidates
// per request — the shared-line shape the candidate-set path amortises
// — and ranks each set with the reference model exactly as the server
// does (top-k by CTR, ties to the lower index, base wins unless beaten).
func (in *inputs) buildOptimize(rng *rand.Rand) {
	in.optReqs = make([]binproto.OptimizeRequest, poolFrames)
	in.optRef = make([]optExpect, poolFrames)
	var cs core.CandidateScratch
	var scores []core.CandidateScore
	var topk engine.TopK
	for f := range in.optReqs {
		g := &in.corpus.Groups[rng.Intn(len(in.corpus.Groups))]
		base := g.Creatives[rng.Intn(len(g.Creatives))].Lines
		cands := make([][]string, optimizeCands)
		for i := range cands {
			lines := make([]string, len(base))
			for j := range lines {
				c := &g.Creatives[rng.Intn(len(g.Creatives))]
				if j < len(c.Lines) {
					lines[j] = c.Lines[j]
				} else {
					lines[j] = base[j]
				}
			}
			cands[i] = lines
		}
		in.optReqs[f] = binproto.OptimizeRequest{
			ID: reqID(f, 0), Model: engine.NameMicro, MaxN: maxN, TopK: optimizeTopK,
			Lines: base, Candidates: cands,
		}

		all := append([][]string{base}, cands...)
		scores = in.ref.ScoreCandidates(all, maxN, &cs, scores)
		exp := optExpect{base: scores[0], best: -1}
		topk.Reset(optimizeTopK)
		for i := range cands {
			topk.Offer(i, scores[i+1].CTR)
		}
		idx, _ := topk.Sorted()
		if len(idx) > 0 && scores[int(idx[0])+1].CTR > scores[0].CTR {
			exp.best = int(idx[0])
		}
		for _, i := range idx {
			exp.ranked = append(exp.ranked, binproto.RankedCandidate{
				Index: int(i), CTR: scores[int(i)+1].CTR, Score: scores[int(i)+1].Score,
			})
		}
		in.optRef[f] = exp
	}
}

// buildMixed generates connection A's feedback bodies and connection
// B's read frames (macro sessions against sdbn alternating with micro
// snippets, so every item re-resolves its model).
func (in *inputs) buildMixed(sim *serp.Simulator, rng *rand.Rand) {
	in.feedback = make([]feedbackBody, feedbackPool)
	for i := range in.feedback {
		fb := feedbackBody{
			Sessions: make([]clickmodel.Session, feedbackSess),
			Snippets: make([]stream.SnippetEvent, feedbackSnips),
		}
		for j := range fb.Sessions {
			fb.Sessions[j] = sim.Session(in.corpus, adsPerSession)
		}
		for j := range fb.Snippets {
			lines, clicks := sim.SnippetFeedback(in.corpus, snipImpression)
			fb.Snippets[j] = stream.SnippetEvent{Lines: lines, Impressions: snipImpression, Clicks: clicks}
		}
		in.feedback[i] = fb
	}
	in.mixedFrames = make([][]engine.Request, poolFrames)
	for f := range in.mixedFrames {
		reqs := make([]engine.Request, scoreBatch)
		for j := range reqs {
			if j%2 == 0 {
				s := sim.Session(in.corpus, adsPerSession)
				reqs[j] = engine.Request{ID: reqID(f, j), Model: "sdbn", Session: &s}
			} else {
				reqs[j] = engine.Request{ID: reqID(f, j), Model: engine.NameMicro, Lines: in.randomCreative(rng).Lines, MaxN: maxN}
			}
		}
		in.mixedFrames[f] = reqs
	}
}

// reqID is the correlation tag of item j of pool entry f; replies must
// echo it.
func reqID(f, j int) string {
	return strconv.Itoa(f) + "." + strconv.Itoa(j)
}
