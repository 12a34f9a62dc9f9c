package clickmodel

// Generator of internal/clickmodel/testdata/parent_795c2d4/golden.json.
// It is not part of any build: to regenerate, check out commit 795c2d4
// — the last one whose PBM, UBM, DBN, CCM, GCM and SUM held their fits
// in map[qd]float64 — copy this file into internal/clickmodel as
// zz_fixture_test.go and run
//
//	FIXTURE_DIR=/abs/path go test ./internal/clickmodel -run TestWriteEMParentFixture
//
// golden.json holds the training log and held-out sessions of
// parent_f37df46, and, for PBM, UBM, BBM, DBN, CCM, GCM and SUM fitted
// through each estimation path — Fit on the sessions with one E-step
// worker; FitLog on the compiled log with two (SUM has no FitLog); and,
// for PBM and DBN, the model FromArtifact serves from the FitLog fit's
// export — the sha256 of the model's export, its ParamCount and what it
// answered on every held-out session, by bits: ClickProbs,
// ExaminationProbs (for an Examiner) and SessionLogLikelihood. It
// checks first that the models Load and LoadModel read back from the
// export answer the same by bits and count the same parameters.

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

	"repro/internal/snapshot"
)

type emGoldenFit struct {
	Export string     `json:"export_sha256"`
	Params int        `json:"param_count"`
	Probs  [][]string `json:"click_probs"` // per held-out session, math.Float64bits per position, hex
	Exam   [][]string `json:"exam_probs"`  // empty for a model that is no Examiner
	LL     []string   `json:"log_likelihood"`
}

type emParentGolden struct {
	Commit string                 `json:"commit"`
	Train  []Session              `json:"train"`
	Eval   []Session              `json:"eval"`
	Fits   map[string]emGoldenFit `json:"fits"` // "<registry name>/<path>"
}

// emSetWorkers pins a model's E-step fan-out: the merge order of the
// per-worker sums is part of the answer's bits.
func emSetWorkers(m Model, w int) {
	switch t := m.(type) {
	case *PBM:
		t.Workers = w
	case *UBM:
		t.Workers = w
	case *BBM:
		t.Workers = w
	case *DBN:
		t.Workers = w
	case *CCM:
		t.Workers = w
	case *GCM:
		t.Workers = w
	}
}

// emGoldenPaths are the estimation paths of the golden, by name: each
// fits m on the training log and returns the model to record (the
// served path returns another), or nil when the path does not apply.
var emGoldenPaths = []struct {
	name string
	fit  func(m Model, train []Session) (Model, error)
}{
	{"fit", func(m Model, train []Session) (Model, error) {
		emSetWorkers(m, 1)
		return m, m.Fit(train)
	}},
	{"fitlog", func(m Model, train []Session) (Model, error) {
		lf, ok := m.(LogFitter)
		if !ok {
			return nil, nil
		}
		emSetWorkers(m, 2)
		c, err := Compile(train)
		if err != nil {
			return nil, err
		}
		return m, lf.FitLog(c)
	}},
	{"served", func(m Model, train []Session) (Model, error) {
		if m.Name() != "PBM" && m.Name() != "DBN" {
			return nil, nil
		}
		emSetWorkers(m, 2)
		c, err := Compile(train)
		if err != nil {
			return nil, err
		}
		if err := m.(LogFitter).FitLog(c); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := m.(Snapshotter).Save(&buf); err != nil {
			return nil, err
		}
		a, err := snapshot.ParseV2(buf.Bytes())
		if err != nil {
			return nil, err
		}
		served, views, err := FromArtifact(a)
		if err != nil || !views {
			return nil, fmt.Errorf("FromArtifact: views %v, %v", views, err)
		}
		return served, served.(interface{ ValidateTables() error }).ValidateTables()
	}},
}

func TestWriteEMParentFixture(t *testing.T) {
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
	answers := func(m Model, s Session) (probs, exam []string, ll string) {
		probs = list(m.ClickProbs(s))
		if e, ok := m.(Examiner); ok {
			exam = list(e.ExaminationProbs(s))
		}
		return probs, exam, bits(m.SessionLogLikelihood(s))
	}
	sess := func(q string, docs []string, clicked ...int) Session {
		s := Session{Query: q, Docs: docs, Clicks: make([]bool, len(docs))}
		for _, i := range clicked {
			s.Clicks[i] = true
		}
		return s
	}

	g := emParentGolden{Commit: "795c2d47a5b9ab1bf0732dd8feef1a37941c600a", Fits: map[string]emGoldenFit{}}
	// The log and held-out sessions of parent_f37df46.
	g.Train = synthParityLog(27, 1200)
	g.Train = append(g.Train[:600:600],
		sess("only early", []string{"d1", "d2", "d3"}, 1),
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

	for _, name := range []string{"pbm", "ubm", "bbm", "dbn", "ccm", "gcm", "sum"} {
		for _, path := range emGoldenPaths {
			fresh, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := path.fit(fresh, g.Train)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, path.name, err)
			}
			if m == nil {
				continue
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
			into, _ := New(name)
			if err := into.(Snapshotter).Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			fit := emGoldenFit{Export: hex.EncodeToString(sum[:]), Params: ParamCount(m)}
			for _, back := range []Model{loaded, into} {
				if ParamCount(back) != fit.Params {
					t.Fatalf("%s/%s: %d parameters read back, %d recorded", name, path.name, ParamCount(back), fit.Params)
				}
			}
			for _, s := range g.Eval {
				p, e, ll := answers(m, s)
				for _, back := range []Model{loaded, into} {
					bp, be, bll := answers(back, s)
					if fmt.Sprint(p, e, ll) != fmt.Sprint(bp, be, bll) {
						t.Fatalf("%s/%s: a model read back answers %v otherwise", name, path.name, s)
					}
				}
				fit.Probs = append(fit.Probs, p)
				fit.Exam = append(fit.Exam, e)
				fit.LL = append(fit.LL, ll)
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
