package clickmodel

// Generator of internal/clickmodel/testdata/parent_f37df46/golden.json.
// It is not part of any build: to regenerate, check out commit f37df46
// — the last one whose SDBN, Cascade and DCM held their fits in
// map[qd]float64 — copy this file into internal/clickmodel as
// zz_fixture_test.go and run
//
//	FIXTURE_DIR=/abs/path go test ./internal/clickmodel -run TestWriteCountingParentFixture
//
// golden.json holds a fixed training log (synthParityLog plus sessions
// of unusual shape), held-out sessions, and, for each counting model
// fitted through each estimation path — FitLog on the compiled log;
// FitStats on a Stats filled by Add; and FitStats on a Stats that
// decayed, took more traffic and pruned, emptying one query — the
// sha256 of the model's export and what the fitted model answered on
// every held-out session, by bits: ClickProbs, ExaminationProbs and
// SessionLogLikelihood. It checks first that the model LoadModel reads
// back from the export answers the same by bits.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

type countingGoldenFit struct {
	Export string     `json:"export_sha256"`
	Probs  [][]string `json:"click_probs"` // per held-out session, math.Float64bits per position, hex
	Exam   [][]string `json:"exam_probs"`
	LL     []string   `json:"log_likelihood"`
}

type countingParentGolden struct {
	Commit string                       `json:"commit"`
	Train  []Session                    `json:"train"`
	Eval   []Session                    `json:"eval"`
	Fits   map[string]countingGoldenFit `json:"fits"` // "<registry name>/<path>"
}

// countingGoldenPaths are the estimation paths of the golden, by name:
// each fits m on the training log.
var countingGoldenPaths = []struct {
	name string
	fit  func(m Model, train []Session) error
}{
	{"fitlog", func(m Model, train []Session) error {
		c, err := Compile(train)
		if err != nil {
			return err
		}
		return m.(LogFitter).FitLog(c)
	}},
	{"stats", func(m Model, train []Session) error {
		st := NewStats()
		if err := st.AddAll(train); err != nil {
			return err
		}
		return m.(StatsFitter).FitStats(st)
	}},
	{"stats_decay_prune", func(m Model, train []Session) error {
		// The first half ages to a hundredth of its mass; a pair it alone
		// saw, at most once above a last click, then falls under the
		// prune mark — and so does every pair of the query only the
		// first half asks.
		st := NewStats()
		half := len(train) / 2
		if err := st.AddAll(train[:half]); err != nil {
			return err
		}
		st.Decay(0.01)
		if err := st.AddAll(train[half:]); err != nil {
			return err
		}
		if st.Prune(0.015) == 0 {
			return fmt.Errorf("the prune dropped nothing")
		}
		return m.(StatsFitter).FitStats(st)
	}},
}

func TestWriteCountingParentFixture(t *testing.T) {
	dir := os.Getenv("FIXTURE_DIR")
	if dir == "" {
		t.Skip("FIXTURE_DIR not set")
	}
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	list := func(fs []float64) []string {
		out := make([]string, len(fs))
		for i, f := range fs {
			out[i] = bits(f)
		}
		return out
	}
	sess := func(q string, docs []string, clicked ...int) Session {
		s := Session{Query: q, Docs: docs, Clicks: make([]bool, len(docs))}
		for _, i := range clicked {
			s.Clicks[i] = true
		}
		return s
	}

	g := countingParentGolden{Commit: "f37df468611a89c82318d4d59908b538c865147c", Fits: map[string]countingGoldenFit{}}
	g.Train = synthParityLog(27, 1200)
	g.Train = append(g.Train[:600:600],
		// The first half alone asks "only early": a decayed prune empties it.
		sess("only early", []string{"d1", "d2", "d3"}, 1),
		// A doc twice in one list, a pair only below a last click (d9),
		// and a list deeper than synthParityLog's.
		sess("edge", []string{"a", "b", "a", "d9"}, 2),
		sess("edge", []string{"b", "a", "c", "d", "e", "f", "g", "h", "i", "j"}, 0, 4),
	)
	g.Train = append(g.Train, synthParityLog(27, 1200)[600:]...)
	g.Eval = append(synthParityLog(28, 40),
		sess("never seen", []string{"d1", "zz"}, 0),
		sess("q3", []string{"d0", "unseen doc", "d5"}, 2),
		sess("edge", []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}, 1, 11),
		sess("only early", []string{"d2", "d1"}),
	)

	for _, name := range []string{"sdbn", "cascade", "dcm"} {
		for _, path := range countingGoldenPaths {
			m, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := path.fit(m, g.Train); err != nil {
				t.Fatalf("%s/%s: %v", name, path.name, err)
			}
			var buf bytes.Buffer
			if err := m.(Snapshotter).Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var fit countingGoldenFit
			fit.Export = hex.EncodeToString(sum[:])
			for _, s := range g.Eval {
				p, e, ll := m.ClickProbs(s), m.(Examiner).ExaminationProbs(s), m.SessionLogLikelihood(s)
				lp, le, lll := loaded.ClickProbs(s), loaded.(Examiner).ExaminationProbs(s), loaded.SessionLogLikelihood(s)
				if fmt.Sprint(list(p), list(e), bits(ll)) != fmt.Sprint(list(lp), list(le), bits(lll)) {
					t.Fatalf("%s/%s: the loaded model answers %v otherwise than the fitted one", name, path.name, s)
				}
				fit.Probs = append(fit.Probs, list(p))
				fit.Exam = append(fit.Exam, list(e))
				fit.LL = append(fit.LL, bits(ll))
			}
			g.Fits[name+"/"+path.name] = fit
		}
	}

	data, err := json.Marshal(&g)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "golden.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
