package clickmodel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/snapshot"
)

// The parent fixtures pin the one per-pair form to the maps it
// replaced: each holds what a commit whose models kept their fits in
// map[qd]float64 exported and answered, for models fitted through each
// estimation path on a fixed log. The generate_test.go beside each is
// the program that wrote it; the paths and the fixture's types are
// copied from there.
const (
	// countingParentFixture: SDBN, Cascade and DCM at f37df46.
	countingParentFixture = "testdata/parent_f37df46/golden.json"
	// emParentFixture: PBM, UBM, BBM, DBN, CCM, GCM and SUM at 795c2d4,
	// with each model's ParamCount.
	emParentFixture = "testdata/parent_795c2d4/golden.json"
)

type parentGoldenFit struct {
	Export string     `json:"export_sha256"`
	Params int        `json:"param_count"` // absent (0) from countingParentFixture
	Probs  [][]string `json:"click_probs"`
	Exam   [][]string `json:"exam_probs"` // empty for a model that is no Examiner
	LL     []string   `json:"log_likelihood"`
}

type parentGolden struct {
	Commit string                     `json:"commit"`
	Train  []Session                  `json:"train"`
	Eval   []Session                  `json:"eval"`
	Fits   map[string]parentGoldenFit `json:"fits"`
}

// goldenPath is one estimation path of a fixture: it fits m on the
// training log and returns the model to check (the served path returns
// another), or nil where the path does not apply to m.
type goldenPath struct {
	name string
	fit  func(m Model, train []Session) (Model, error)
}

var countingGoldenPaths = []goldenPath{
	{"fitlog", func(m Model, train []Session) (Model, error) {
		c, err := Compile(train)
		if err != nil {
			return nil, err
		}
		return m, m.FitLog(c)
	}},
	{"stats", func(m Model, train []Session) (Model, error) {
		st := NewStats()
		if err := addAll(st, train); err != nil {
			return nil, err
		}
		return m, m.(StatsFitter).FitStats(st)
	}},
	{"stats_decay_prune", func(m Model, train []Session) (Model, error) {
		st := NewStats()
		half := len(train) / 2
		if err := addAll(st, train[:half]); err != nil {
			return nil, err
		}
		st.Decay(0.01)
		if err := addAll(st, train[half:]); err != nil {
			return nil, err
		}
		if st.Prune(0.015) == 0 {
			return nil, fmt.Errorf("the prune dropped nothing")
		}
		return m, m.(StatsFitter).FitStats(st)
	}},
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

var emGoldenPaths = []goldenPath{
	// The fixture's "fit" records were written through the parent's
	// Fit(sessions): Compile, then FitLog at the model's Workers (for
	// SUM, the one fit it had, now its FitLog).
	{"fit", func(m Model, train []Session) (Model, error) {
		emSetWorkers(m, 1)
		return m, fitSessions(m, train)
	}},
	{"fitlog", func(m Model, train []Session) (Model, error) {
		if m.Name() == "SUM" { // the parent's SUM had no FitLog
			return nil, nil
		}
		emSetWorkers(m, 2)
		return m, fitSessions(m, train)
	}},
	{"served", func(m Model, train []Session) (Model, error) {
		if m.Name() != "PBM" && m.Name() != "DBN" {
			return nil, nil
		}
		emSetWorkers(m, 2)
		if err := fitSessions(m, train); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
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

// TestCountingMatchesParentFixture holds the counting models' fitted
// form to the maps it replaced: fitted on the parent's log through each
// path, every model exports the bytes the parent exported and answers
// every held-out session as the parent did, by bits — and so does the
// model Load and LoadModel read back from that export.
func TestCountingMatchesParentFixture(t *testing.T) {
	checkParentFixture(t, countingParentFixture, []string{"sdbn", "cascade", "dcm"}, countingGoldenPaths)
}

// TestEMMatchesParentFixture holds the EM models and SUM to the maps
// they fitted into at 795c2d4 the same way, through Fit, FitLog and —
// for PBM and DBN — serving from the artifact, and to the parent's
// ParamCount.
func TestEMMatchesParentFixture(t *testing.T) {
	checkParentFixture(t, emParentFixture, []string{"pbm", "ubm", "bbm", "dbn", "ccm", "gcm", "sum"}, emGoldenPaths)
}

// checkParentFixture fits every model through every path that applies
// and holds it — and the model LoadModel reads back from its export —
// to the fixture's record of the parent, by bits.
func checkParentFixture(t *testing.T, fixture string, models []string, paths []goldenPath) {
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var g parentGolden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	answers := func(t *testing.T, what string, m Model, want parentGoldenFit) {
		t.Helper()
		ex, isExaminer := m.(Examiner)
		for i, s := range g.Eval {
			probs := m.ClickProbsInto(s, nil)
			if isExaminer != (len(want.Exam[i]) > 0) {
				t.Fatalf("%s: Examiner %v, the parent's %v", what, isExaminer, !isExaminer)
			}
			var exam []float64
			if isExaminer {
				exam = ex.ExaminationProbs(s)
			}
			for j := range s.Docs {
				if bits(probs[j]) != want.Probs[i][j] {
					t.Fatalf("%s session %d position %d: click %s, the parent answered %s", what, i, j, bits(probs[j]), want.Probs[i][j])
				}
				if isExaminer && bits(exam[j]) != want.Exam[i][j] {
					t.Fatalf("%s session %d position %d: exam %s, the parent answered %s", what, i, j, bits(exam[j]), want.Exam[i][j])
				}
			}
			if ll := bits(m.SessionLogLikelihood(s)); ll != want.LL[i] {
				t.Fatalf("%s session %d: log-likelihood %s, the parent answered %s", what, i, ll, want.LL[i])
			}
		}
	}
	checked := 0
	for _, name := range models {
		for _, path := range paths {
			fresh, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := path.fit(fresh, g.Train)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, path.name, err)
			}
			want, ok := g.Fits[name+"/"+path.name]
			if m == nil {
				if ok {
					t.Errorf("%s/%s: the path no longer applies", name, path.name)
				}
				continue
			}
			checked++
			t.Run(name+"/"+path.name, func(t *testing.T) {
				if !ok {
					t.Fatal("not in the fixture")
				}
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want.Export {
					t.Errorf("export sha256 %x, the parent exported %s", sum, want.Export)
				}
				if want.Params != 0 && ParamCount(m) != want.Params {
					t.Errorf("ParamCount %d, the parent counted %d", ParamCount(m), want.Params)
				}
				answers(t, "fitted", m, want)

				loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				answers(t, "LoadModel", loaded, want)
				if ParamCount(loaded) != ParamCount(m) {
					t.Errorf("ParamCount %d loaded, %d fitted", ParamCount(loaded), ParamCount(m))
				}
			})
		}
	}
	if checked != len(g.Fits) {
		t.Errorf("checked %d fits, the fixture holds %d", checked, len(g.Fits))
	}
}
