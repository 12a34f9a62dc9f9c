// Benchmarks regenerating every evaluation artifact of the paper, plus
// ablation benches for the design choices called out in DESIGN.md.
//
// One benchmark exists per table/figure:
//
//	BenchmarkTable2_M1..M6        — Table 2 rows (train+evaluate one fold)
//	BenchmarkFigure3_PositionWeights — Figure 3 (full M6 fit + extraction)
//	BenchmarkTable4_Top / _RHS    — Table 4 columns
//	BenchmarkClickModel_*         — the S1 click-model substrate
//
// The benchmark corpora are small so `go test -bench=.` stays quick; the
// full-scale numbers come from cmd/experiments (ROADMAP.md item 1 has
// the measured comparison with the paper).
package microbrowsing_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	micro "repro"
	"repro/internal/classifier"
	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/core/coreref"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/rewrite"
	"repro/internal/serp"
	"repro/internal/server"
	"repro/internal/server/binproto"
	"repro/internal/snapshot"
	"repro/internal/snippet"
	"repro/internal/stream"
	"repro/internal/textproc"
	"repro/internal/wal"
)

// benchData lazily builds one shared small experiment corpus.
var benchData = struct {
	once  sync.Once
	data  *experiments.Data
	rhs   *experiments.Data
	setup experiments.Setup
}{}

func getBenchData(b *testing.B) (*experiments.Data, experiments.Setup) {
	b.Helper()
	benchData.once.Do(func() {
		benchData.setup = experiments.Setup{
			Seed: 404, Groups: 200, StatsGroups: 600, Impressions: 500, Folds: 3,
		}
		benchData.data = experiments.BuildData(benchData.setup)
		rhsSetup := benchData.setup
		rhsSetup.Placement = serp.RHS
		benchData.rhs = experiments.BuildData(rhsSetup)
	})
	return benchData.data, benchData.setup
}

// benchTable2Model trains and scores one Table 2 row on a single fold.
func benchTable2Model(b *testing.B, spec classifier.ModelSpec) {
	data, setup := getBenchData(b)
	pipe := classifier.NewPipeline(spec, data.DB)
	pipe.Seed = setup.Seed
	ds := pipe.Dataset(data.Pairs)
	folds, err := ml.KFold(ds.Len(), setup.Folds, setup.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := classifier.Train(ds, folds[0].Train, classifier.Options{Epochs: 40, Rounds: 3})
		if err != nil {
			b.Fatal(err)
		}
		preds := model.PredictIdx(ds, folds[0].Test)
		labels := make([]bool, len(folds[0].Test))
		for k, j := range folds[0].Test {
			labels[k] = ds.Labels[j]
		}
		met := ml.EvaluateBinary(preds, labels)
		if met.Accuracy < 0.3 {
			b.Fatalf("%s collapsed: %v", spec.Name, met.Accuracy)
		}
	}
}

func BenchmarkTable2_M1(b *testing.B) { benchTable2Model(b, classifier.M1) }
func BenchmarkTable2_M2(b *testing.B) { benchTable2Model(b, classifier.M2) }
func BenchmarkTable2_M3(b *testing.B) { benchTable2Model(b, classifier.M3) }
func BenchmarkTable2_M4(b *testing.B) { benchTable2Model(b, classifier.M4) }
func BenchmarkTable2_M5(b *testing.B) { benchTable2Model(b, classifier.M5) }
func BenchmarkTable2_M6(b *testing.B) { benchTable2Model(b, classifier.M6) }

// BenchmarkFigure3_PositionWeights regenerates Figure 3: full M6 training
// plus extraction of the learned per-line position weights.
func BenchmarkFigure3_PositionWeights(b *testing.B) {
	data, setup := getBenchData(b)
	pipe := classifier.NewPipeline(classifier.M6, data.DB)
	pipe.Seed = setup.Seed
	ds := pipe.Dataset(data.Pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := classifier.Train(ds, nil, classifier.Options{Epochs: 40, Rounds: 3})
		if err != nil {
			b.Fatal(err)
		}
		if table := model.PositionWeights(); len(table) == 0 {
			b.Fatal("no position weights learned")
		}
	}
}

// benchTable4Column runs one placement column of Table 4 (M6 only, one
// fold) against the placement-specific corpus.
func benchTable4Column(b *testing.B, data *experiments.Data, seed int64) {
	pipe := classifier.NewPipeline(classifier.M6, data.DB)
	pipe.Seed = seed
	ds := pipe.Dataset(data.Pairs)
	folds, err := ml.KFold(ds.Len(), 3, seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := classifier.Train(ds, folds[0].Train, classifier.Options{Epochs: 40, Rounds: 3})
		if err != nil {
			b.Fatal(err)
		}
		model.PredictIdx(ds, folds[0].Test)
	}
}

func BenchmarkTable4_Top(b *testing.B) {
	data, setup := getBenchData(b)
	benchTable4Column(b, data, setup.Seed)
}

func BenchmarkTable4_RHS(b *testing.B) {
	_, setup := getBenchData(b)
	benchTable4Column(b, benchData.rhs, setup.Seed)
}

// --- S1: click-model substrate benches ---

var benchSessions = struct {
	once     sync.Once
	sessions []clickmodel.Session
	compiled *clickmodel.CompiledLog
}{}

func getBenchSessions(b *testing.B) ([]clickmodel.Session, *clickmodel.CompiledLog) {
	b.Helper()
	benchSessions.once.Do(func() {
		corpus := micro.GenerateCorpus(micro.CorpusConfig{Seed: 405, Groups: 150}, micro.DefaultLexicon())
		sim := micro.NewSimulator(micro.SimConfig{Seed: 406})
		benchSessions.sessions = sim.Sessions(corpus, 4000, 4)
		var err error
		benchSessions.compiled, err = clickmodel.Compile(benchSessions.sessions)
		if err != nil {
			panic(err)
		}
	})
	return benchSessions.sessions, benchSessions.compiled
}

// benchClickModel measures the steady-state fit: the log is compiled
// (interned) once and one model instance is refitted per op — the shape
// of a serving system re-estimating on live traffic, where refits reuse
// the model's per-pair value arrays and the pooled accumulator slab.
// Each op is one full parameter estimation.
func benchClickModel(b *testing.B, newModel func() clickmodel.Model) {
	_, compiled := getBenchSessions(b)
	m := newModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.FitLog(compiled); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClickModel_Compile prices the one-time interning pass the
// other ClickModel benches hoist.
func BenchmarkClickModel_Compile(b *testing.B) {
	sessions, _ := getBenchSessions(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clickmodel.Compile(sessions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClickModel_PBM(b *testing.B) {
	benchClickModel(b, func() clickmodel.Model { m := clickmodel.NewPBM(); m.Iterations = 5; return m })
}

func BenchmarkClickModel_Cascade(b *testing.B) {
	benchClickModel(b, func() clickmodel.Model { return clickmodel.NewCascade() })
}

func BenchmarkClickModel_DCM(b *testing.B) {
	benchClickModel(b, func() clickmodel.Model { return clickmodel.NewDCM() })
}

func BenchmarkClickModel_UBM(b *testing.B) {
	benchClickModel(b, func() clickmodel.Model { m := clickmodel.NewUBM(); m.Iterations = 5; return m })
}

func BenchmarkClickModel_BBM(b *testing.B) {
	benchClickModel(b, func() clickmodel.Model {
		m := clickmodel.NewBBM()
		m.Browse.Iterations = 5
		return m
	})
}

func BenchmarkClickModel_CCM(b *testing.B) {
	benchClickModel(b, func() clickmodel.Model { m := clickmodel.NewCCM(); m.Iterations = 5; return m })
}

func BenchmarkClickModel_DBN(b *testing.B) {
	benchClickModel(b, func() clickmodel.Model { m := clickmodel.NewDBN(); m.Iterations = 5; return m })
}

func BenchmarkClickModel_SDBN(b *testing.B) {
	benchClickModel(b, func() clickmodel.Model { return clickmodel.NewSDBN() })
}

func BenchmarkClickModel_GCM(b *testing.B) {
	benchClickModel(b, func() clickmodel.Model { m := clickmodel.NewGCM(); m.Iterations = 5; return m })
}

// BenchmarkClickModel_Evaluate measures the single-pass held-out
// scoring (log-likelihood + perplexity with a reused buffer).
func BenchmarkClickModel_Evaluate(b *testing.B) {
	sessions, compiled := getBenchSessions(b)
	m := clickmodel.NewPBM()
	m.Iterations = 5
	if err := m.FitLog(compiled); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := clickmodel.Evaluate(m, sessions)
		if ev.Perplexity < 1 {
			b.Fatal("perplexity below 1")
		}
	}
}

// BenchmarkClickModel_Artifact prices a click-model artifact both ways
// on countingServeModel's queries=20000/docs=10 fit: save writes the
// model's v2 artifact into a reused buffer, thaw parses that artifact
// once and thaws it per op (clickmodel.FromArtifact, with every check a
// load runs). Both report the artifact's size as artifact-B.
func BenchmarkClickModel_Artifact(b *testing.B) {
	sh := countingShapes[1]
	for _, name := range []string{"pbm", "sdbn", "bbm"} {
		artifact := sync.OnceValues(func() (clickmodel.Model, []byte) {
			m, _ := countingServeModel(b, name, sh)
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				b.Fatal(err)
			}
			return m, buf.Bytes()
		})
		b.Run(name+"/save", func(b *testing.B) {
			m, data := artifact()
			buf := bytes.NewBuffer(make([]byte, 0, len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := m.Save(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "artifact-B")
		})
		b.Run(name+"/thaw", func(b *testing.B) {
			_, data := artifact()
			a, err := snapshot.ParseV2(data)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := clickmodel.FromArtifact(a); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data)), "artifact-B")
		})
	}
}

// --- unified scoring engine ---

// benchEngineCorpus lazily builds the engine bench corpus: one micro
// scoring request per creative of a mid-sized synthetic corpus, plus
// the planted ground-truth model to score them with.
var benchEngineCorpus = struct {
	once  sync.Once
	reqs  []micro.ScoreRequest
	model *micro.Model
}{}

func getEngineBench(b *testing.B) ([]micro.ScoreRequest, *micro.Model) {
	b.Helper()
	benchEngineCorpus.once.Do(func() {
		lex := micro.DefaultLexicon()
		corpus := micro.GenerateCorpus(micro.CorpusConfig{Seed: 407, Groups: 400}, lex)
		benchEngineCorpus.model = micro.NewSimulator(micro.SimConfig{Seed: 408}).TrueModel(lex)
		for gi := range corpus.Groups {
			for ci := range corpus.Groups[gi].Creatives {
				c := &corpus.Groups[gi].Creatives[ci]
				benchEngineCorpus.reqs = append(benchEngineCorpus.reqs,
					micro.ScoreRequest{ID: c.ID, Lines: c.Lines, MaxN: 3})
			}
		}
	})
	return benchEngineCorpus.reqs, benchEngineCorpus.model
}

// processCPU is the process's user+system CPU time so far: what a
// batch costs, where the wall clock only says how long it took — a
// woken helper shortens the second and lengthens the first.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkEngineScoreBatch measures batch-scoring throughput of the
// unified engine on a full-corpus batch with its strand cap at 1, 4
// and GOMAXPROCS. On multi-core hardware the 4-strand batch must beat
// the single strand; on a single hardware thread the helpers
// degenerate gracefully.
//
// The dispatch sub-benches swap the micro scorer for a no-op, so the
// per-request engine overhead — model resolution (the RWMutex-vs-
// atomic-table read path), chunk claiming, response bookkeeping — is
// measured bare instead of buried under term extraction.
func BenchmarkEngineScoreBatch(b *testing.B) {
	reqs, model := getEngineBench(b)
	ctx := context.Background()
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := micro.NewEngine(micro.WithWorkers(workers))
			eng.UseMicro(model)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resps := eng.ScoreBatch(ctx, reqs)
				if resps[0].Err != nil {
					b.Fatal(resps[0].Err)
				}
			}
			b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
	// The size sub-benches price one batch of a given size on one strand
	// (workers=1) against the same batch with helpers allowed: the
	// smallest size at which the second beats the first by more than
	// their run-to-run spread is the break-even engine.minStrandBatch
	// is read from.
	maxWorkers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		maxWorkers = append(maxWorkers, p)
	}
	for _, size := range []int{32, 64, 256, 4096} {
		sized := make([]micro.ScoreRequest, size)
		for i := range sized {
			sized[i] = reqs[i%len(reqs)]
		}
		for _, workers := range maxWorkers {
			b.Run(fmt.Sprintf("size=%d/workers=%d", size, workers), func(b *testing.B) {
				eng := micro.NewEngine(micro.WithWorkers(workers))
				eng.UseMicro(model)
				out := make([]micro.ScoreResponse, size)
				b.ReportAllocs()
				b.ResetTimer()
				cpu0 := processCPU()
				for i := 0; i < b.N; i++ {
					out = eng.ScoreBatchInto(ctx, sized, out)
					if out[0].Err != nil {
						b.Fatal(out[0].Err)
					}
				}
				perReq := float64(size) * float64(b.N)
				b.ReportMetric(float64(processCPU()-cpu0)/perReq, "cpu-ns/req")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perReq, "ns/req")
			})
		}
	}
	// The repeat sub-benches price the engine's snippet memo from both
	// sides, in the serving protocols' 64-request frames on one strand:
	// repeat=all cycles 1,024 distinct snippets (after two passes every
	// request is answered from the memo), repeat=none cycles 65,536 —
	// several times what the memo holds, so no request ever is, while a
	// sight that still finds its marker stores: the memo's worst case,
	// and an upper bound on what traffic without repeats pays for it
	// being there. 18-token snippets over a 50,000-term model.
	repeatModel, repeatPool := repeatBench()
	for _, rb := range []struct {
		name     string
		distinct int
	}{{"repeat=all", 1 << 10}, {"repeat=none", len(repeatPool)}} {
		b.Run(rb.name, func(b *testing.B) {
			eng := micro.NewEngine(micro.WithWorkers(1))
			eng.UseMicro(repeatModel)
			pool := repeatPool[:rb.distinct]
			out := make([]micro.ScoreResponse, scoreFrame)
			for at := 0; at < 2*len(pool); at += scoreFrame { // two passes: every snippet that will be stored is
				out = eng.ScoreBatchInto(ctx, pool[at%len(pool):][:scoreFrame], out)
			}
			b.ReportAllocs()
			b.ResetTimer()
			at := 0
			for i := 0; i < b.N; i++ {
				out = eng.ScoreBatchInto(ctx, pool[at:at+scoreFrame], out)
				if out[0].Err != nil {
					b.Fatal(out[0].Err)
				}
				if at += scoreFrame; at == len(pool) {
					at = 0
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(scoreFrame*float64(b.N)), "ns/req")
		})
	}
	nopReqs := make([]micro.ScoreRequest, 4096)
	for i := range nopReqs {
		nopReqs[i] = micro.ScoreRequest{Model: "nop"}
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("dispatch/workers=%d", workers), func(b *testing.B) {
			eng := micro.NewEngine(micro.WithWorkers(workers))
			if _, err := eng.Install("nop", nopScorer{}, "register"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resps := eng.ScoreBatch(ctx, nopReqs)
				if resps[0].Err != nil {
					b.Fatal(resps[0].Err)
				}
			}
			b.ReportMetric(float64(len(nopReqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// scoreFrame is the serving protocols' batch: 64 snippets per MBSP
// frame or JSON body.
const scoreFrame = 64

// repeatBench builds the repeat sub-benches' inputs: a 50,000-term
// model over a 2,000-word vocabulary and 65,536 distinct three-line,
// 18-token snippets drawn from it.
func repeatBench() (*micro.Model, []micro.ScoreRequest) {
	rng := rand.New(rand.NewSource(409))
	words := make([]string, 2000)
	for i := range words {
		words[i] = fmt.Sprintf("w%dx%d", i, rng.Intn(1000))
	}
	model := micro.NewModel(micro.DefaultAttention())
	for len(model.Relevance) < 50000 {
		term := words[rng.Intn(len(words))]
		for n := rng.Intn(3); n > 0; n-- {
			term += " " + words[rng.Intn(len(words))]
		}
		model.Relevance[term] = 0.05 + 0.9*rng.Float64()
	}
	pool := make([]micro.ScoreRequest, 1<<16)
	for i := range pool {
		lines := make([]string, 3)
		for l := range lines {
			line := words[rng.Intn(len(words))]
			for t := 1; t < 6; t++ {
				line += " " + words[rng.Intn(len(words))]
			}
			lines[l] = line
		}
		pool[i] = micro.ScoreRequest{Lines: lines, MaxN: 3}
	}
	return model, pool
}

// --- micro scoring path: compiled vs map-based ---

// BenchmarkMicroScore prices one micro scoring request through the
// three serving layers: the compiled model kernel (interned vocab,
// byte-window n-gram lookup, dense attention table — the steady-state
// zero-allocation path), the map-based reference the parity suites
// hold it against (package coreref; never served), and the full
// engine dispatch (resolution + pooled scratch around the compiled
// kernel).
func BenchmarkMicroScore(b *testing.B) {
	reqs, model := getEngineBench(b)
	ctx := context.Background()

	b.Run("compiled", func(b *testing.B) {
		cm := model.Compile()
		var sc textproc.Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := reqs[i%len(reqs)]
			ctr, _ := cm.ScoreSnippet(r.Lines, r.MaxN, &sc)
			if ctr < 0 || ctr > 1 {
				b.Fatalf("ctr out of range: %v", ctr)
			}
		}
	})

	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := reqs[i%len(reqs)]
			ctr, _ := coreref.ScoreSnippet(model, r.Lines, r.MaxN)
			if ctr < 0 || ctr > 1 {
				b.Fatalf("ctr out of range: %v", ctr)
			}
		}
	})

	b.Run("engine", func(b *testing.B) {
		eng := micro.NewEngine()
		eng.UseMicro(model)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ScoreCTR(ctx, reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMicroTokenize prices Scratch.Tokenize per line, by line
// shape, so a tokeniser that is only fast on lower-case words shows:
// the bench corpus' lines as they are, and four shapes derived from
// them — Title Case with ", . ! -" between words, "'s" on every third
// word (the dropped byte), two lines joined to about 90 bytes (more than
// one 64-byte block), and one "é" per line (the non-ASCII fallback).
// ns/op is ns per line.
func BenchmarkMicroTokenize(b *testing.B) {
	reqs, _ := getEngineBench(b)
	var corpus []string
	for _, r := range reqs {
		corpus = append(corpus, r.Lines...)
	}
	perWord := func(edit func(i int, w string) string, sep func(i int) string) []string {
		out := make([]string, len(corpus))
		for li, line := range corpus {
			var sb strings.Builder
			for i, w := range strings.Fields(line) {
				if i > 0 {
					sb.WriteString(sep(i))
				}
				sb.WriteString(edit(i, w))
			}
			out[li] = sb.String()
		}
		return out
	}
	space := func(int) string { return " " }
	long90 := make([]string, len(corpus))
	for i, line := range corpus {
		long90[i] = line + " " + corpus[(i+1)%len(corpus)]
		for j := 2; len(long90[i]) < 80; j++ {
			long90[i] += " " + corpus[(i+j)%len(corpus)]
		}
	}
	shapes := []struct {
		name  string
		lines []string
	}{
		{"corpus", corpus},
		{"title_punct", perWord(
			func(_ int, w string) string { return strings.ToUpper(w[:1]) + w[1:] },
			func(i int) string { return []string{", ", ". ", "! ", " - "}[i%4] })},
		{"apostrophe", perWord(
			func(i int, w string) string {
				if i%3 == 0 {
					return w + "'s"
				}
				return w
			}, space)},
		{"long90", long90},
		{"nonascii", perWord(
			func(i int, w string) string {
				if i == 1 {
					return w + "é"
				}
				return w
			}, space)},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			var sc textproc.Scratch
			var bytes, tokens int
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				bytes += len(shape.lines[j])
				tokens += len(sc.Tokenize(shape.lines[j]))
				if j++; j == len(shape.lines) {
					j = 0
				}
			}
			if tokens == 0 && b.N > 100 {
				b.Fatal("no tokens")
			}
			b.ReportMetric(float64(bytes)/1e6/b.Elapsed().Seconds(), "MB/s")
		})
	}
}

// BenchmarkExtractTermsPath compares the two term-resolution paths on
// the bench corpus: materialising every positioned n-gram string
// (textproc.ExtractTerms, what the serving loop used to do per
// request) against the zero-copy tokenise + byte-window vocab lookup
// the compiled scorer rides.
func BenchmarkExtractTermsPath(b *testing.B) {
	reqs, model := getEngineBench(b)

	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := reqs[i%len(reqs)]
			if terms := textproc.ExtractTerms(r.Lines, r.MaxN); len(terms) == 0 {
				b.Fatal("no terms extracted")
			}
		}
	})

	b.Run("lookup", func(b *testing.B) {
		vocab := textproc.FreezeVocab(vocabBenchTerms(model, 0))
		var sc textproc.Scratch
		hits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := reqs[i%len(reqs)]
			for _, line := range r.Lines {
				spans := sc.Tokenize(line)
				for j := range spans {
					h := textproc.NGramHashSeed
					for n := 1; n <= r.MaxN && j+n <= len(spans); n++ {
						sp := spans[j+n-1]
						h = textproc.ExtendNGramHash(h, sp.Hash)
						if _, ok := vocab.LookupHashed(h, sc.Norm[spans[j].Start:sp.End]); ok {
							hits++
						}
					}
				}
			}
		}
		if b.N > 100 && hits == 0 {
			b.Fatal("vocab lookups never hit; bench is not measuring the hit path")
		}
	})
}

// vocabBenchTerms lists the bench model's planted terms, padded with
// distinct one- and two-token filler to n terms when it has fewer.
func vocabBenchTerms(model *micro.Model, n int) []string {
	terms := make([]string, 0, max(n, len(model.Relevance)))
	for t := range model.Relevance {
		terms = append(terms, t)
	}
	for i := 0; len(terms) < n; i++ {
		term := "pad" + strconv.Itoa(i)
		if i%3 != 0 {
			term += " filler" + strconv.Itoa(i%977)
		}
		if _, planted := model.Relevance[term]; !planted {
			terms = append(terms, term)
		}
	}
	return terms
}

// BenchmarkMicroCompile prices core.Model.Compile — list the relevance
// keys, freeze them, take the logarithms — at BenchmarkVocabLookup's two
// vocabulary sizes. A micro publish of the online learner pays it, and
// so does every Save (which sorts the keys first).
func BenchmarkMicroCompile(b *testing.B) {
	_, model := getEngineBench(b)
	for _, terms := range []int{2_000, 200_000} {
		m := core.NewModel(nil)
		for i, t := range vocabBenchTerms(model, terms) {
			m.Relevance[t] = 0.2 + float64(i%61)/100
		}
		b.Run(fmt.Sprintf("%dk", terms/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c := m.Compile(); c.NumParams() != terms {
					b.Fatalf("compiled %d terms, want %d", c.NumParams(), terms)
				}
			}
		})
	}
}

// BenchmarkVocabLookup prices one FrozenVocab.LookupHashed, hit and
// miss apart, at two vocabulary sizes: 2k terms (table and tags sit in
// L1/L2, as in every other bench here, whose corpus has a few dozen
// terms) and 200k terms — the planted terms padded with filler, the
// shape the end-to-end benchmark gives its artifact, whose 2 MB probe
// table does not. Probes are pre-tokenised, 64k distinct ones per
// sub-bench walked in order, so what is timed is the lookup and what it
// misses in cache, not the hashing. A miss probes a term with one byte
// appended: same length class, unrelated hash.
func BenchmarkVocabLookup(b *testing.B) {
	_, model := getEngineBench(b)
	for _, terms := range []int{2_000, 200_000} {
		texts := vocabBenchTerms(model, terms)
		vocab := textproc.FreezeVocab(texts)

		type probe struct {
			h      uint64
			lo, hi int
		}
		var sc textproc.Scratch
		build := func(suffix string) ([]byte, []probe) {
			var arena []byte
			var probes []probe
			for id := 0; id < terms && len(probes) < 1<<16; id += 1 + terms>>16 {
				spans := sc.Tokenize(texts[id] + suffix)
				h := textproc.NGramHashSeed
				for _, sp := range spans {
					h = textproc.ExtendNGramHash(h, sp.Hash)
				}
				probes = append(probes, probe{h: h, lo: len(arena), hi: len(arena) + len(sc.Norm)})
				arena = append(arena, sc.Norm...)
			}
			return arena, probes
		}
		for _, kind := range []struct {
			name, suffix string
			hit          bool
		}{{"hit", "", true}, {"miss", "x", false}} {
			arena, probes := build(kind.suffix)
			b.Run(fmt.Sprintf("terms=%dk/%s", terms/1000, kind.name), func(b *testing.B) {
				found, want := 0, 0
				if kind.hit {
					want = b.N
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i, j := 0, 0; i < b.N; i++ {
					p := probes[j]
					if _, ok := vocab.LookupHashed(p.h, arena[p.lo:p.hi]); ok {
						found++
					}
					if j++; j == len(probes) {
						j = 0
					}
				}
				if found != want {
					b.Fatalf("%d of %d %s probes were found, want %d", found, b.N, kind.name, want)
				}
			})
		}
	}
}

// --- serving transport + zero-parse artifact loading ---

// BenchmarkServeProtocol prices one 256-request score batch through
// the two wire protocols microserve speaks on its single port: the
// JSON HTTP surface and the length-prefixed MBSP binary framing
// (internal/server/binproto). Both sub-benches talk to the same engine
// through the same sniffing mux over real TCP, so the delta is pure
// protocol tax. allocs/op is allocations per batch, and it is the
// serving path's: the JSON client posts a body marshalled once and
// checks the reply without unmarshalling it, so what is counted is the
// handler and net/http, not the benchmark's own encoding/json calls.
func BenchmarkServeProtocol(b *testing.B) {
	reqs, model := getEngineBench(b)
	const batch = 256
	if len(reqs) < batch {
		b.Fatalf("bench corpus has %d requests, need %d", len(reqs), batch)
	}
	breqs := make([]micro.ScoreRequest, batch)
	copy(breqs, reqs[:batch])

	eng := micro.NewEngine(micro.WithWorkers(1))
	eng.UseMicro(model)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hsrv := &http.Server{Handler: server.New(eng, nil)}
	mux := binproto.NewMux(ln, binproto.NewServer(eng, nil))
	go hsrv.Serve(mux)
	defer hsrv.Close()
	addr := ln.Addr().String()

	b.Run("json", func(b *testing.B) {
		client := &http.Client{}
		url := "http://" + addr + "/v1/score/batch"
		body, err := json.Marshal(struct {
			Requests []micro.ScoreRequest `json:"requests"`
		}{breqs})
		if err != nil {
			b.Fatal(err)
		}
		var reply bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			reply.Reset()
			_, err = reply.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if n := bytes.Count(reply.Bytes(), []byte(`"ctr":`)); resp.StatusCode != http.StatusOK || n != batch {
				b.Fatalf("status %d with %d responses, want 200 with %d", resp.StatusCode, n, batch)
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("binary", func(b *testing.B) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		c := binproto.NewClient(conn)
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resps, err := c.ScoreBatch(breqs)
			if err != nil {
				b.Fatal(err)
			}
			if len(resps) != batch {
				b.Fatalf("got %d responses, want %d", len(resps), batch)
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

// syntheticMicroModel pads the bench corpus ground-truth model with
// deterministic filler vocabulary up to the requested term count — the
// knob behind the load-path benches' artifact sizes.
func syntheticMicroModel(b *testing.B, terms int) *micro.Model {
	b.Helper()
	_, base := getEngineBench(b)
	m := &micro.Model{
		Relevance:        make(map[string]float64, terms),
		DefaultRelevance: base.DefaultRelevance,
		Attention:        base.Attention,
	}
	for t, r := range base.Relevance {
		m.Relevance[t] = r
	}
	for i := len(m.Relevance); i < terms; i++ {
		m.Relevance[fmt.Sprintf("synthetic filler term %09d", i)] = 0.1 + float64(i%80)/100
	}
	return m
}

// BenchmarkSnapshotLoad prices a model hot-swap from an artifact at
// three sizes: validate the directory, map the file, adopt the tables
// in place — O(1) in artifact size. The engine keeps one version per
// name, so each op also prices the unmap of the previous artifact,
// exactly what a production reload pays.
func BenchmarkSnapshotLoad(b *testing.B) {
	dir := b.TempDir()
	type artifact struct{ label, path string }
	var arts []artifact
	for _, sz := range []struct {
		label string
		terms int
	}{
		{"1MB", 25_000},
		{"10MB", 250_000},
		{"100MB", 2_750_000},
	} {
		a := artifact{label: sz.label, path: filepath.Join(dir, sz.label+".mbs2")}
		if err := snapshot.WriteFileAtomic(a.path, syntheticMicroModel(b, sz.terms).Save); err != nil {
			b.Fatal(err)
		}
		arts = append(arts, a)
	}
	// The top size must genuinely be a >=100MB artifact or the O(1)-load
	// claim is being tested against a toy.
	if fi, err := os.Stat(arts[len(arts)-1].path); err != nil {
		b.Fatal(err)
	} else if fi.Size() < 100<<20 {
		b.Fatalf("%s is %d bytes, want >= 100MB", fi.Name(), fi.Size())
	}
	for _, a := range arts {
		b.Run("mmap/size="+a.label, func(b *testing.B) {
			eng := micro.NewEngine(micro.WithKeepVersions(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.LoadSnapshotFile("m", a.path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// nopScorer answers instantly: the engine's own per-request overhead
// is all the dispatch sub-benches measure.
type nopScorer struct{}

func (nopScorer) ScoreCTR(ctx context.Context, req micro.ScoreRequest) (micro.ScoreResponse, error) {
	return micro.ScoreResponse{CTR: 0.5}, nil
}

// --- ablation benches for DESIGN.md section 5 ---

// BenchmarkAblation_GreedyMatching vs _NaiveMatching compare the
// DB-scored greedy matcher against position-only matching.
func BenchmarkAblation_GreedyMatching(b *testing.B) {
	data, _ := getBenchData(b)
	m := rewrite.NewMatcher(data.DB)
	r, s := ablationPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchTerms(m.Diff(r, s))
	}
}

func BenchmarkAblation_NaiveMatching(b *testing.B) {
	m := &rewrite.Matcher{}
	r, s := ablationPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchTerms(m.Diff(r, s))
	}
}

func ablationPair() (snippet.Creative, snippet.Creative) {
	return snippet.Creative{ID: "r", Lines: []string{
			"XYZ Airlines official site",
			"Find cheap flights to New York today",
			"No reservation costs. Great rates"}},
		snippet.Creative{ID: "s", Lines: []string{
			"XYZ Airlines official site",
			"Flying to New York? Get discounts.",
			"No reservation costs. Great rates!"}}
}

// BenchmarkAblation_StatsInit vs _ZeroInit measure the cost/benefit of
// statistics-database initialisation (M1 with and without).
func benchInitAblation(b *testing.B, useInit bool) {
	data, setup := getBenchData(b)
	spec := classifier.M1
	spec.UseStatsInit = useInit
	pipe := classifier.NewPipeline(spec, data.DB)
	pipe.Seed = setup.Seed
	ds := pipe.Dataset(data.Pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classifier.Train(ds, nil, classifier.Options{Epochs: 40}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_StatsInit(b *testing.B) { benchInitAblation(b, true) }
func BenchmarkAblation_ZeroInit(b *testing.B)  { benchInitAblation(b, false) }

// BenchmarkAblation_BatchLR prices one L1 logistic-regression fit on
// the M1 dataset.
func BenchmarkAblation_BatchLR(b *testing.B) {
	data, setup := getBenchData(b)
	pipe := classifier.NewPipeline(classifier.M1, data.DB)
	pipe.Seed = setup.Seed
	ds := pipe.Dataset(data.Pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &ml.LogisticRegression{L1: 1e-4, Epochs: 40, LearningRate: 0.5}
		if err := m.Fit(ds.Flat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_InitSmoothing measures evidence-shrunk
// initialisation lookups against the raw odds (featstats layer).
func BenchmarkAblation_InitSmoothing(b *testing.B) {
	data, _ := getBenchData(b)
	keys := make([]string, 0, 256)
	for k := range data.DB.Stats {
		keys = append(keys, k)
		if len(keys) == 256 {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			_ = data.DB.LogOddsSmoothed(k, 8)
		}
	}
}

// --- online learning stream ---

// getStreamSessions reuses the click-model bench log as replayable
// feedback traffic.
func getStreamSessions(b *testing.B) []clickmodel.Session {
	sessions, _ := getBenchSessions(b)
	return sessions
}

// BenchmarkStreamIngest prices the sustained sink throughput — the
// per-event cost the HTTP feedback handler pays, plus the amortised
// drain that empties shard buffers as they fill. Draining happens
// inline on saturation (a background drainer cannot be relied on under
// GOMAXPROCS=1), guarded by a mutex in the parallel case because only
// one drainer may work a shard at a time. Steady state must not
// allocate, and with the drain keeping pace nothing may drop.
func BenchmarkStreamIngest(b *testing.B) {
	sessions := getStreamSessions(b)
	run := func(b *testing.B, parallel bool) {
		sink := stream.NewSink(runtime.GOMAXPROCS(0), 1<<13)
		var drainMu sync.Mutex
		discard := func(*stream.Event) {}
		offer := func(ev stream.Event) {
			for sink.OfferRun([]stream.Event{ev}) == 0 {
				drainMu.Lock()
				for s := 0; s < sink.Shards(); s++ {
					sink.DrainShard(s, discard)
				}
				drainMu.Unlock()
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		if parallel {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					offer(stream.Event{Session: &sessions[i%len(sessions)]})
					i++
				}
			})
		} else {
			for i := 0; i < b.N; i++ {
				offer(stream.Event{Session: &sessions[i%len(sessions)]})
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
		if q := sink.Queued(); q < uint64(b.N) {
			b.Fatalf("queued %d of %d offers", q, b.N)
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, false) })
	b.Run("parallel", func(b *testing.B) { run(b, true) })
}

// countingShape is a (query, doc) space for the counting models' write
// and read benchmarks: queries × docs pairs, doc i named alike under
// every query.
type countingShape struct {
	name          string
	queries, docs int // docs per query
}

// countingShapes are the two ends of the space: mixed_online's one query
// over a large ad inventory, and many queries of a few docs each.
var countingShapes = []countingShape{
	{"queries=1/docs=16384", 1, 16384},
	{"queries=20000/docs=10", 20000, 10},
}

var countingLogs struct {
	mu   sync.Mutex
	logs map[countingShape][2][]clickmodel.Session
}

// countingShapeLogs returns a shape's training log, which lists every
// doc of every query in sessions of four, and a pool of 4096 four-doc
// sessions of random docs under random queries. Clicks fall off with
// the position.
func countingShapeLogs(sh countingShape) (train, pool []clickmodel.Session) {
	countingLogs.mu.Lock()
	defer countingLogs.mu.Unlock()
	if l, ok := countingLogs.logs[sh]; ok {
		return l[0], l[1]
	}
	rng := rand.New(rand.NewSource(int64(sh.queries)*31 + int64(sh.docs)))
	docs := make([]string, sh.docs)
	for i := range docs {
		docs[i] = fmt.Sprintf("ad-%06d", i)
	}
	session := func(q int, ds []string) clickmodel.Session {
		s := clickmodel.Session{Query: fmt.Sprintf("query %d", q), Docs: ds, Clicks: make([]bool, len(ds))}
		for i := range ds {
			s.Clicks[i] = rng.Float64() < 0.3/float64(i+1)
		}
		return s
	}
	for q := 0; q < sh.queries; q++ {
		for d := 0; d < sh.docs; d += 4 {
			ds := make([]string, 4)
			for i := range ds {
				ds[i] = docs[(d+i)%sh.docs]
			}
			train = append(train, session(q, ds))
		}
	}
	for i := 0; i < 4096; i++ {
		ds := make([]string, 4)
		for j, d := range rng.Perm(sh.docs)[:4] {
			ds[j] = docs[d]
		}
		pool = append(pool, session(rng.Intn(sh.queries), ds))
	}
	if countingLogs.logs == nil {
		countingLogs.logs = map[countingShape][2][]clickmodel.Session{}
	}
	countingLogs.logs[sh] = [2][]clickmodel.Session{train, pool}
	return train, pool
}

// BenchmarkStreamFold prices the per-session accumulation into the
// incremental sufficient statistics (interning plus dense count
// updates) in each countingShape; the pool is folded once before the
// timer, so every pair is interned and the steady state allocates
// nothing.
func BenchmarkStreamFold(b *testing.B) {
	for _, sh := range countingShapes {
		b.Run(sh.name, func(b *testing.B) {
			train, pool := countingShapeLogs(sh)
			st := clickmodel.NewStats()
			for _, log := range [][]clickmodel.Session{train, pool} {
				for _, s := range log {
					if err := st.Add(s); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Add(pool[i%len(pool)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
		})
	}
}

// BenchmarkCountingServe prices what a reader pays per macro session of
// a model the learner published: ClickProbsInto over four docs into a
// reused buffer, the model fitted on the shape's training log through
// clickmodel.Train — a counting model from its statistics, PBM, UBM,
// BBM, DBN, CCM and GCM from the compiled log (five EM rounds). Every
// model reads its per-pair values the same way, through a pair table,
// and a model the engine loads from an artifact is thawed into that
// same form (clickmodel.FromArtifact), so these arms price it too.
func BenchmarkCountingServe(b *testing.B) {
	for _, name := range []string{"sdbn", "cascade", "dcm", "pbm", "ubm", "bbm", "dbn", "ccm", "gcm"} {
		for _, sh := range countingShapes {
			b.Run(name+"/"+sh.name, func(b *testing.B) {
				m, pool := countingServeModel(b, name, sh)
				benchClickProbsInto(b, m, pool)
			})
		}
	}
}

// countingServeModel fits the named model on a shape's training log and
// returns it with the shape's scoring pool.
func countingServeModel(b *testing.B, name string, sh countingShape) (clickmodel.Model, []clickmodel.Session) {
	b.Helper()
	train, pool := countingShapeLogs(sh)
	c, err := clickmodel.Compile(train)
	if err != nil {
		b.Fatal(err)
	}
	st := clickmodel.NewStats()
	for _, s := range train {
		if err := st.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	m, err := clickmodel.Train(name, 5, c, st)
	if err != nil {
		b.Fatal(err)
	}
	return m, pool
}

// benchClickProbsInto scores the pool round-robin into one reused
// buffer.
func benchClickProbsInto(b *testing.B, m clickmodel.Model, pool []clickmodel.Session) {
	buf := make([]float64, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.ClickProbsInto(pool[i%len(pool)], buf)
	}
}

// BenchmarkStreamPublish measures publish latency end to end — drain,
// merge, refit, install — per model family: counting (SDBN, from the
// global statistics) and EM (PBM, windowed mini-batch refit). Each op
// ingests a fresh slice of traffic and publishes one new version.
func BenchmarkStreamPublish(b *testing.B) {
	sessions := getStreamSessions(b)
	for _, tc := range []struct {
		name   string
		models []string
	}{
		{"counting", []string{"sdbn"}},
		{"em", []string{"pbm"}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng := micro.NewEngine(micro.WithKeepVersions(2))
			l, err := stream.New(eng, stream.Config{
				Models: tc.models, Shards: 4, QueueCap: 1 << 13, Window: len(sessions), Iterations: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Warm: the whole log folded once, one version installed.
			for i := range sessions {
				if err := l.Ingest(stream.Event{Session: &sessions[i]}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := l.Publish(); err != nil {
				b.Fatal(err)
			}
			const perOp = 500
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < perOp; k++ {
					l.Ingest(stream.Event{Session: &sessions[(i*perOp+k)%len(sessions)]})
				}
				if _, err := l.Publish(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// feedbackBench is the write path's replayable traffic in the shape
// benchmark/inputs.go posts on mixed_online: bodies of 200 four-doc
// sessions and 20 three-line snippet events of 50 impressions.
var feedbackBench = struct {
	once     sync.Once
	bodies   [][]byte
	snippets []stream.SnippetEvent
}{}

func getFeedbackBench(b *testing.B) ([][]byte, []stream.SnippetEvent) {
	b.Helper()
	fb := &feedbackBench
	fb.once.Do(func() {
		corpus := micro.GenerateCorpus(micro.CorpusConfig{Seed: 405, Groups: 150}, micro.DefaultLexicon())
		sim := micro.NewSimulator(micro.SimConfig{Seed: 407})
		for i := 0; i < 64; i++ {
			body := struct {
				Sessions []clickmodel.Session  `json:"sessions"`
				Snippets []stream.SnippetEvent `json:"snippets"`
			}{Sessions: sim.Sessions(corpus, 200, 4)}
			for j := 0; j < 20; j++ {
				lines, clicks := sim.SnippetFeedback(corpus, 50)
				body.Snippets = append(body.Snippets, stream.SnippetEvent{Lines: lines, Impressions: 50, Clicks: clicks})
			}
			raw, err := json.Marshal(body)
			if err != nil {
				panic(err)
			}
			fb.bodies = append(fb.bodies, raw)
			fb.snippets = append(fb.snippets, body.Snippets...)
		}
	})
	return fb.bodies, fb.snippets
}

// BenchmarkStreamFeedback prices POST /v1/feedback in process, per
// 220-event body: route, body read, decode, the learner's ingest and the
// reply — without a WAL, and with the default batched one (its flusher
// runs on its own goroutine; on a host with few CPUs its work lands
// beside the handler's). The sink is emptied by a publish
// outside the timer every 256 bodies, so nothing drops and no fold runs
// beside the handler.
func BenchmarkStreamFeedback(b *testing.B) {
	bodies, _ := getFeedbackBench(b)
	run := func(b *testing.B, durable bool) {
		cfg := stream.Config{Models: []string{"sdbn", "micro"}, Shards: 2, QueueCap: 1 << 15}
		if durable {
			// Bounded retention, as in production (see BenchmarkWALAppend).
			w, err := wal.Open(b.TempDir(), wal.Options{MaxBytes: 256 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			cfg.WAL = w
		}
		eng := micro.NewEngine(micro.WithKeepVersions(2))
		l, err := stream.New(eng, cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		srv := server.New(eng, nil, server.WithLearner(l))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%256 == 255 {
				b.StopTimer()
				if _, err := l.Publish(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(bodies[i%len(bodies)])))
			if rec.Code != http.StatusOK {
				b.Fatalf("feedback answered %d: %s", rec.Code, rec.Body)
			}
		}
		b.StopTimer()
		if c := l.Metrics().Read(); c["stream.dropped"]+c["stream.invalid"] != 0 || c["stream.accepted"] != float64(b.N*220) {
			b.Fatalf("accepted %v of %v events (%v dropped, %v invalid)", c["stream.accepted"], b.N*220, c["stream.dropped"], c["stream.invalid"])
		}
	}
	b.Run("wal=off", func(b *testing.B) { run(b, false) })
	b.Run("wal=batched", func(b *testing.B) { run(b, true) })
}

// BenchmarkStreamFoldSnippet prices the snippet half of a fold, which
// BenchmarkStreamFold (sessions into the statistics) does not see: an
// op is one publish over 4096 queued snippet events — the fold that
// tokenises each and credits its distinct n-grams, then the merge and
// the micro refit over the ≈ 2k-term table they leave. Queueing the
// events is outside the timer.
func BenchmarkStreamFoldSnippet(b *testing.B) {
	_, snippets := getFeedbackBench(b)
	eng := micro.NewEngine(micro.WithKeepVersions(2))
	l, err := stream.New(eng, stream.Config{Models: []string{"micro"}, Shards: 2, QueueCap: 1 << 12, MicroMaxN: 3})
	if err != nil {
		b.Fatal(err)
	}
	const perOp = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < perOp; k++ {
			if err := l.Ingest(stream.Event{Snippet: &snippets[(i*perOp+k)%len(snippets)]}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := l.Publish(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- feedback WAL ---

// benchWALRecord is a representative feedback record: one 4-doc
// session, the same shape the online loop's hot path logs.
func benchWALRecord(sessions []clickmodel.Session, i int) wal.Record {
	return wal.Record{Session: &sessions[i%len(sessions)]}
}

// BenchmarkWALAppend prices one durable append under each fsync
// policy. batched is the configured default (the hot path is a
// lock-free ring publish, no syscall — it must not allocate); always
// pays a group-committed fsync per call and is the floor for zero-loss
// ingest; off writes on the flush cadence and never fsyncs.
func BenchmarkWALAppend(b *testing.B) {
	sessions := getStreamSessions(b)
	for _, tc := range []struct {
		name string
		sync wal.SyncPolicy
	}{
		{"batched", wal.SyncBatched},
		{"always", wal.SyncAlways},
		{"off", wal.SyncOff},
	} {
		b.Run("fsync="+tc.name, func(b *testing.B) {
			// MaxBytes keeps the log bounded like a production deploy;
			// an unpruned log otherwise grows without limit across
			// iterations and prices filesystem pressure, not the path.
			w, err := wal.Open(b.TempDir(), wal.Options{Sync: tc.sync, MaxBytes: 256 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			// Warm the append buffer so steady state is measured.
			for i := 0; i < 1000; i++ {
				if _, err := w.Append(benchWALRecord(sessions, i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Append(benchWALRecord(sessions, i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
		})
	}
}

// BenchmarkWALIngest prices the full accept path of one feedback event
// — sink offer plus (optionally) the WAL append — so wal=batched
// against nowal is the durability tax.
func BenchmarkWALIngest(b *testing.B) {
	sessions := getStreamSessions(b)
	run := func(b *testing.B, sync wal.SyncPolicy, durable bool) {
		sink := stream.NewSink(runtime.GOMAXPROCS(0), 1<<13)
		discard := func(*stream.Event) {}
		var w *wal.WAL
		if durable {
			var err error
			// Bounded retention, as in production (see BenchmarkWALAppend).
			if w, err = wal.Open(b.TempDir(), wal.Options{Sync: sync, MaxBytes: 256 << 20}); err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			// Warm the log's buffers so steady state is measured.
			for i := 0; i < 1000; i++ {
				if _, err := w.Append(benchWALRecord(sessions, i)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := stream.Event{Session: &sessions[i%len(sessions)]}
			for sink.OfferRun([]stream.Event{ev}) == 0 {
				for s := 0; s < sink.Shards(); s++ {
					sink.DrainShard(s, discard)
				}
			}
			if durable {
				if _, err := w.Append(wal.Record{Session: ev.Session}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
	}
	b.Run("nowal", func(b *testing.B) { run(b, wal.SyncBatched, false) })
	b.Run("wal=batched", func(b *testing.B) { run(b, wal.SyncBatched, true) })
	b.Run("wal=always", func(b *testing.B) { run(b, wal.SyncAlways, true) })
}

// BenchmarkWALReplay prices boot-time recovery: one op replays a
// sealed multi-segment log end to end, the cost a restart pays before
// serving resumes.
func BenchmarkWALReplay(b *testing.B) {
	sessions := getStreamSessions(b)
	dir := b.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		if _, err := w.Append(benchWALRecord(sessions, i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := wal.Open(dir, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		replayed := 0
		if err := r.Replay(func(uint64, *wal.Record) error { replayed++; return nil }); err != nil {
			b.Fatal(err)
		}
		if replayed != n {
			b.Fatalf("replayed %d of %d", replayed, n)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "sessions/s")
}

// --- candidate-set scoring fast path (/v1/optimize) ---

// BenchmarkOptimizeCandidates prices the /v1/optimize workload — one
// query × N candidate snippets that are edits of a common base, so the
// candidates share almost all of their lines — through three layers:
//
//	naive        — ScoreSnippet in a loop, one full tokenise + vocab
//	               walk per candidate (what a client scoring variants
//	               one at a time pays)
//	candidateset — core.ScoreCandidates, the amortised pass: each
//	               distinct (line, position) pair is tokenised and
//	               scored once, candidates combine cached partials
//	engine       — the same pass behind engine resolution + version
//	               pinning + pooled scratch, i.e. what the server runs
//
// The candidate-set pass must hold a ≥5× advantage over naive at
// N=512 and allocate nothing at steady state; BENCH_optimize.json
// tracks both (scripts/bench.sh -s optimize).
func BenchmarkOptimizeCandidates(b *testing.B) {
	reqs, model := getEngineBench(b)
	cm := model.Compile()
	ctx := context.Background()

	// The candidate pool: lines drawn from a dozen sibling creatives,
	// mixed three at a time — the snippet-construction workload shape
	// (optimize_mbsp's in benchmark/), with the heavy line sharing real
	// edit spaces have.
	var pool []string
	for i := 0; i < len(reqs) && len(pool) < 36; i++ {
		pool = append(pool, reqs[i].Lines...)
	}
	build := func(n int) [][]string {
		cands := make([][]string, 0, n+1)
		cands = append(cands, reqs[0].Lines) // slot 0: the base snippet
		for i := 0; i < n; i++ {
			cands = append(cands, []string{
				pool[(i*7)%len(pool)],
				pool[(i*5+11)%len(pool)],
				pool[(i*3+23)%len(pool)],
			})
		}
		return cands
	}

	for _, n := range []int{16, 128, 512} {
		cands := build(n)

		b.Run(fmt.Sprintf("naive/N=%d", n), func(b *testing.B) {
			var sc textproc.Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, lines := range cands {
					if ctr, _ := cm.ScoreSnippet(lines, 3, &sc); ctr < 0 || ctr > 1 {
						b.Fatalf("ctr out of range: %v", ctr)
					}
				}
			}
			b.ReportMetric(float64(len(cands))*float64(b.N)/b.Elapsed().Seconds(), "cand/s")
		})

		b.Run(fmt.Sprintf("candidateset/N=%d", n), func(b *testing.B) {
			var cs core.CandidateScratch
			out := cm.ScoreCandidates(cands, 3, &cs, nil) // warm the arenas
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = cm.ScoreCandidates(cands, 3, &cs, out)
				if out[0].CTR < 0 || out[0].CTR > 1 {
					b.Fatalf("ctr out of range: %v", out[0].CTR)
				}
			}
			b.ReportMetric(float64(len(cands))*float64(b.N)/b.Elapsed().Seconds(), "cand/s")
		})

		b.Run(fmt.Sprintf("engine/N=%d", n), func(b *testing.B) {
			eng := micro.NewEngine()
			eng.UseMicro(model)
			var out []core.CandidateScore
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out, _, err = eng.ScoreCandidates(ctx, micro.ModelMicro, cands, 3, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(cands))*float64(b.N)/b.Elapsed().Seconds(), "cand/s")
		})
	}
}

// --- observability tax ---

// BenchmarkObsHistogramRecord prices one obs.Histogram.Record — the
// primitive every instrumented hot path pays per sample. It must stay
// a handful of nanoseconds and exactly zero allocations, or the
// observability layer has no business inside the scoring loop. The
// parallel sub-bench hammers one histogram from every hardware thread
// to expose the contended-cache-line cost a busy server actually sees.
func BenchmarkObsHistogramRecord(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		var h obs.Histogram
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Record(uint64(i)&0xFFFFF + 1)
		}
		if h.Snapshot().Count != uint64(b.N) {
			b.Fatal("histogram lost samples")
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var h obs.Histogram
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			v := uint64(1)
			for pb.Next() {
				h.Record(v&0xFFFFF + 1)
				v += 2654435761 // Fibonacci-hash stride: cheap spread over buckets
			}
		})
		if h.Snapshot().Count != uint64(b.N) {
			b.Fatal("histogram lost samples")
		}
	})
}

// BenchmarkObsScoreBatch prices the instrumentation tax on the
// engine's hottest path: the same batches scored with no observer
// attached (off) and with the full stage-timing + sampled per-score +
// predicted-CTR pipeline (on). The observer costs two monotonic clock
// reads per batch, a 1-in-64 sampled score timing and one
// predicted-CTR sample per scored request. A strand tallies those
// samples in its own memory and hands them to the version's shared
// histogram once per resolution it held, so the per-request share is
// three plain adds, not three atomic adds on a line every strand
// writes.
//
// off and on score one 1,204-request batch on up to four strands; the
// acceptance bar is the two staying within 5% of each other. The
// frames sub-benches are the serving shape that per-request sample
// was expensive on: two goroutines — two connections — score
// 64-request frames on one engine, every request a memo hit (1,024
// distinct snippets, after two passes), so little but the dispatch,
// the memo lookup and the observer is left per request; cpu-ns/req is
// what the process spent on each.
func BenchmarkObsScoreBatch(b *testing.B) {
	reqs, model := getEngineBench(b)
	ctx := context.Background()
	run := func(b *testing.B, eng *micro.Engine) {
		eng.UseMicro(model)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resps := eng.ScoreBatch(ctx, reqs)
			if resps[0].Err != nil {
				b.Fatal(resps[0].Err)
			}
		}
		b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	}
	b.Run("off", func(b *testing.B) {
		run(b, micro.NewEngine(micro.WithWorkers(4)))
	})
	b.Run("on", func(b *testing.B) {
		eo := &micro.EngineObserver{}
		eng := micro.NewEngine(micro.WithWorkers(4), micro.WithObserver(eo))
		run(b, eng)
		if eo.Batch.Snapshot().Count == 0 {
			b.Fatal("observer attached but batch stage never recorded")
		}
	})

	repeatModel, repeatPool := repeatBench()
	pool := repeatPool[:1<<10]
	frames := func(b *testing.B, eng *micro.Engine) {
		eng.UseMicro(repeatModel)
		outs := [2][]micro.ScoreResponse{make([]micro.ScoreResponse, scoreFrame), make([]micro.ScoreResponse, scoreFrame)}
		for at := 0; at < 2*len(pool); at += scoreFrame { // two passes: every snippet is stored
			outs[0] = eng.ScoreBatchInto(ctx, pool[at%len(pool):][:scoreFrame], outs[0])
		}
		b.ReportAllocs()
		b.ResetTimer()
		cpu0 := processCPU()
		var wg sync.WaitGroup
		for g, out := range outs {
			n := b.N / 2
			if g == 0 {
				n = b.N - n
			}
			wg.Add(1)
			go func(at, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					out = eng.ScoreBatchInto(ctx, pool[at:at+scoreFrame], out)
					if out[0].Err != nil {
						b.Error(out[0].Err)
						return
					}
					if at += scoreFrame; at == len(pool) {
						at = 0
					}
				}
			}(g*len(pool)/2, n)
		}
		wg.Wait()
		perReq := scoreFrame * float64(b.N)
		b.ReportMetric(float64(processCPU()-cpu0)/perReq, "cpu-ns/req")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perReq, "ns/req")
	}
	b.Run("frames/off", func(b *testing.B) {
		frames(b, micro.NewEngine())
	})
	b.Run("frames/on", func(b *testing.B) {
		eo := &micro.EngineObserver{}
		frames(b, micro.NewEngine(micro.WithObserver(eo)))
		if eo.Batch.Snapshot().Count == 0 {
			b.Fatal("observer attached but batch stage never recorded")
		}
	})
}
