package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clickmodel"
	"repro/internal/snapshot"
)

// fixtureDir is one directory of artifacts an earlier commit wrote,
// with what that commit's engine answered from them, by bits, in its
// golden.json. generate_test.go beside them is the program that wrote
// them.
type fixtureDir struct {
	dir      string
	fixtures []string // one artifact per fixture, <fixture>.mbs2
	// replaced: the micro model's probe tables were placed under an
	// earlier hash scheme, so every load re-places them and the export
	// differs from the fixture. Otherwise its fixture is a current
	// artifact.
	replaced bool
}

// v1Parity is testdata/parent_0c75e9e: the micro model, every registry
// click model, and a BBM deep enough for sparse skip counts, as the
// last commit with a v1 writer wrote them (the golden answers are that
// commit's), converted to v2 by the last commit with a v1 reader
// (convert_test.go beside them).
var v1Parity = fixtureDir{"testdata/parent_0c75e9e", append([]string{NameMicro, "bbm_sparse"}, clickmodel.Names()...), false}

// replacedParity is testdata/parent_8bb530c: three v2 artifacts written
// by the commit before the vocabulary's hash scheme changed.
var replacedParity = fixtureDir{"testdata/parent_8bb530c", []string{NameMicro, "pbm", "dbn"}, true}

type goldenSession struct {
	Query string
	Docs  []string
	Probs []string
}

// parentGolden is a fixture directory's golden.json. parent_0c75e9e
// keys its click models' sessions by fixture; parent_8bb530c names
// PBM's and DBN's at the top level.
type parentGolden struct {
	Micro []struct {
		Lines      []string
		MaxN       int `json:"max_n"`
		CTR, Score string
	}
	Click    map[string][]goldenSession
	PBM, DBN []goldenSession
}

func readGolden(t testing.TB, d fixtureDir) *parentGolden {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(d.dir, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g parentGolden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	if g.Click == nil {
		g.Click = map[string][]goldenSession{"pbm": g.PBM, "dbn": g.DBN}
	}
	for _, fixture := range d.fixtures {
		if fixture == NameMicro && len(g.Micro) == 0 || fixture != NameMicro && len(g.Click[fixture]) == 0 {
			t.Fatalf("%s/golden.json holds no inputs for %s", d.dir, fixture)
		}
	}
	return &g
}

// requests returns a fixture's golden inputs, the model left unset.
func (g *parentGolden) requests(fixture string) []Request {
	var out []Request
	if fixture == NameMicro {
		for _, m := range g.Micro {
			out = append(out, Request{Lines: m.Lines, MaxN: m.MaxN})
		}
		return out
	}
	for _, c := range g.Click[fixture] {
		out = append(out, Request{Session: &clickmodel.Session{Query: c.Query, Docs: c.Docs, Clicks: make([]bool, len(c.Docs))}})
	}
	return out
}

func bitsHex(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// check scores every golden input of a fixture, installed on e under
// model, and compares the answers to the parent's by bits — but for
// the sparse BBM, whose golden was written by a build that summed its
// posterior's skip counts in map order: it is held to 1e-12.
func (g *parentGolden) check(t *testing.T, e *Engine, fixture, model string) {
	t.Helper()
	same := func(got float64, want string) bool {
		if fixture != "bbm_sparse" {
			return bitsHex(got) == want
		}
		var bits uint64
		_, err := fmt.Sscanf(want, "%x", &bits)
		return err == nil && math.Abs(got-math.Float64frombits(bits)) <= 1e-12
	}
	for i, req := range g.requests(fixture) {
		req.Model = model
		resp, err := e.ScoreCTR(context.Background(), req)
		if err != nil {
			t.Fatalf("%s %d: %v", fixture, i, err)
		}
		if fixture == NameMicro {
			if want := g.Micro[i]; bitsHex(resp.CTR) != want.CTR || bitsHex(resp.Score) != want.Score {
				t.Errorf("micro %d %q: CTR %s score %s, the parent answered %s and %s", i, req.Lines, bitsHex(resp.CTR), bitsHex(resp.Score), want.CTR, want.Score)
			}
			continue
		}
		want := g.Click[fixture][i].Probs
		if len(resp.Positions) != len(want) {
			t.Fatalf("%s %d: %d positions, the parent answered %d", fixture, i, len(resp.Positions), len(want))
		}
		for pos, p := range resp.Positions {
			if !same(p, want[pos]) {
				t.Errorf("%s %d position %d: %s, the parent answered %s", fixture, i, pos, bitsHex(p), want[pos])
			}
		}
	}
}

// captureLog collects what the standard logger prints while fn runs:
// the vocabulary says there when it had to be re-placed.
func captureLog(t *testing.T, fn func()) string {
	t.Helper()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	fn()
	return buf.String()
}

// TestParentArtifactsLoadAndScoreIdentically is the compatibility
// contract of the artifact format, on the three artifacts placed under
// the previous hash scheme (parent_8bb530c): see checkParentArtifacts.
func TestParentArtifactsLoadAndScoreIdentically(t *testing.T) {
	checkParentArtifacts(t, replacedParity)
}

// TestParentV1ArtifactsImportIdentically holds the v1 artifacts of
// parent_0c75e9e, as the last v1 reader imported them, to the answers
// of the v1 writer: every model loads and scores as it did before the
// format changed, and exports to the bytes the import produced.
func TestParentV1ArtifactsImportIdentically(t *testing.T) {
	checkParentArtifacts(t, v1Parity)
}

// checkParentArtifacts loads every artifact of d through every route —
// stream, trusted file, verified file — and checks that it installs
// under the model name it records and answers exactly what the build
// that wrote it answered. A current micro artifact loads as it stands
// and exports to itself. One placed under the previous hash scheme is
// re-placed on load, and a click model exports to its artifact without
// the probe tables no load reads (withoutProbeTables): either export is
// a current artifact, which loads without a word in the log, answers
// the same, and exports to itself.
func checkParentArtifacts(t *testing.T, d fixtureDir) {
	loaders := []struct {
		name string
		load func(e *Engine, path string) (ModelInfo, error)
	}{
		{"stream", func(e *Engine, path string) (ModelInfo, error) {
			f, err := os.Open(path)
			if err != nil {
				return ModelInfo{}, err
			}
			defer f.Close()
			return e.LoadSnapshot("", f)
		}},
		{"file", func(e *Engine, path string) (ModelInfo, error) { return e.LoadSnapshotFile("", path) }},
		{"file verified", func(e *Engine, path string) (ModelInfo, error) { return e.LoadSnapshotFileVerified("", path) }},
	}
	g := readGolden(t, d)
	for _, fixture := range d.fixtures {
		path := filepath.Join(d.dir, fixture+".mbs2")
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		model := strings.TrimSuffix(fixture, "_sparse")
		replaced := d.replaced && fixture == NameMicro
		want := written
		if fixture != NameMicro {
			want = withoutProbeTables(t, written)
		}
		for _, l := range loaders {
			t.Run(fixture+"/"+l.name, func(t *testing.T) {
				e := New()
				var info ModelInfo
				var err error
				said := captureLog(t, func() { info, err = l.load(e, path) })
				if err != nil {
					t.Fatalf("loading the parent's artifact: %v", err)
				}
				if info.Name != model {
					t.Fatalf("installed as %q, want %q", info.Name, model)
				}
				if rebuilt := strings.Contains(said, "probe table rebuilt"); rebuilt != replaced {
					t.Errorf("the load re-placed a vocabulary: %v, want %v (log: %q)", rebuilt, replaced, said)
				}
				if !replaced && said != "" {
					t.Errorf("the load logged %q", said)
				}
				g.check(t, e, fixture, model)

				var exported bytes.Buffer
				if err := e.SaveSnapshot(info.Ref(), &exported); err != nil {
					t.Fatalf("export: %v", err)
				}
				if replaced {
					if bytes.Equal(exported.Bytes(), written) {
						t.Error("the export of a re-placed artifact equals the parent's bytes")
					}
				} else if !bytes.Equal(exported.Bytes(), want) {
					t.Errorf("the export (%d bytes) is not the parent's artifact without its probe tables (%d bytes)", exported.Len(), len(want))
				}
				if bytes.Equal(exported.Bytes(), written) {
					return
				}
				path := filepath.Join(t.TempDir(), fixture+".mbs2")
				if err := os.WriteFile(path, exported.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				e2 := New()
				said = captureLog(t, func() { info, err = l.load(e2, path) })
				if err != nil {
					t.Fatalf("loading the re-export: %v", err)
				}
				if said != "" {
					t.Errorf("loading the re-export logged %q: it should load as it stands", said)
				}
				g.check(t, e2, fixture, model)
				var again bytes.Buffer
				if err := e2.SaveSnapshot(info.Ref(), &again); err != nil {
					t.Fatalf("second export: %v", err)
				}
				if !bytes.Equal(again.Bytes(), exported.Bytes()) {
					t.Error("exporting a current artifact changed it")
				}
			})
		}
	}
}

// withoutProbeTables re-emits a click-model artifact an earlier build
// wrote without its five probe-table sections — q.tabl, q.tags, d.tabl,
// d.tags and p.tabl — which no load reads and no export writes: what a
// click model loaded from it exports.
func withoutProbeTables(t *testing.T, data []byte) []byte {
	t.Helper()
	a, err := snapshot.ParseV2(data)
	if err != nil {
		t.Fatal(err)
	}
	w := snapshot.NewV2Writer(a.ModelName)
	dropped := 0
	for _, s := range a.Sections {
		switch s.Tag {
		case "q.tabl", "q.tags", "d.tabl", "d.tags", "p.tabl":
			dropped++
			continue
		}
		switch s.Kind {
		case snapshot.V2Float64:
			v, _ := a.FloatsView(s.Tag)
			w.Floats(s.Tag, v)
		case snapshot.V2Int32:
			v, _ := a.Int32sView(s.Tag)
			w.Int32s(s.Tag, v)
		case snapshot.V2Uint32:
			v, _ := a.Uint32sView(s.Tag)
			w.Uint32s(s.Tag, v)
		default:
			v, _ := a.BytesView(s.Tag)
			w.Bytes(s.Tag, v)
		}
	}
	if dropped != 5 {
		t.Fatalf("the %s artifact carries %d probe-table sections, want 5", a.ModelName, dropped)
	}
	var out bytes.Buffer
	if _, err := w.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
