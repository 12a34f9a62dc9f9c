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
)

// countingParentFixture is what commit f37df46 — the last one whose
// SDBN, Cascade and DCM held their fits in map[qd]float64 — exported and
// answered for the three models fitted through each estimation path on
// a fixed log. generate_test.go beside it is the program that wrote it;
// countingGoldenPaths and the golden's types are copied from there.
const countingParentFixture = "testdata/parent_f37df46/golden.json"

type countingGoldenFit struct {
	Export string     `json:"export_sha256"`
	Probs  [][]string `json:"click_probs"`
	Exam   [][]string `json:"exam_probs"`
	LL     []string   `json:"log_likelihood"`
}

type countingParentGolden struct {
	Commit string                       `json:"commit"`
	Train  []Session                    `json:"train"`
	Eval   []Session                    `json:"eval"`
	Fits   map[string]countingGoldenFit `json:"fits"`
}

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

// TestCountingMatchesParentFixture holds the counting models' fitted
// form to the maps it replaced: fitted on the parent's log through each
// path, every model exports the bytes the parent exported and answers
// every held-out session as the parent did, by bits — and so does the
// model Load and LoadModel read back from that export.
func TestCountingMatchesParentFixture(t *testing.T) {
	data, err := os.ReadFile(countingParentFixture)
	if err != nil {
		t.Fatal(err)
	}
	var g countingParentGolden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Fits) != 3*len(countingGoldenPaths) {
		t.Fatalf("the fixture holds %d fits", len(g.Fits))
	}
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	answers := func(what string, m Model, want countingGoldenFit) {
		t.Helper()
		for i, s := range g.Eval {
			probs, exam := m.ClickProbs(s), m.(Examiner).ExaminationProbs(s)
			for j := range s.Docs {
				if bits(probs[j]) != want.Probs[i][j] || bits(exam[j]) != want.Exam[i][j] {
					t.Fatalf("%s session %d position %d: click %s exam %s, the parent answered %s and %s",
						what, i, j, bits(probs[j]), bits(exam[j]), want.Probs[i][j], want.Exam[i][j])
				}
			}
			if ll := bits(m.SessionLogLikelihood(s)); ll != want.LL[i] {
				t.Fatalf("%s session %d: log-likelihood %s, the parent answered %s", what, i, ll, want.LL[i])
			}
		}
	}
	for _, name := range []string{"sdbn", "cascade", "dcm"} {
		for _, path := range countingGoldenPaths {
			t.Run(name+"/"+path.name, func(t *testing.T) {
				want, ok := g.Fits[name+"/"+path.name]
				if !ok {
					t.Fatal("not in the fixture")
				}
				m, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := path.fit(m, g.Train); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := m.(Snapshotter).Save(&buf); err != nil {
					t.Fatal(err)
				}
				if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want.Export {
					t.Errorf("export sha256 %x, the parent exported %s", sum, want.Export)
				}
				answers("fitted", m, want)

				loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				answers("LoadModel", loaded, want)
				fresh, _ := New(name)
				if err := fresh.(Snapshotter).Load(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatal(err)
				}
				answers("Load", fresh, want)
				if ParamCount(fresh) != ParamCount(m) {
					t.Errorf("ParamCount %d loaded, %d fitted", ParamCount(fresh), ParamCount(m))
				}
			})
		}
	}
}
