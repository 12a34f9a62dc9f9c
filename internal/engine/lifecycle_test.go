package engine

import (
	"bytes"
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/mmap"
	"repro/internal/snapshot"
)

// lifecycleModel is one model of the lifecycle table: the form it is
// served in when installed directly, wrapped for serving; its v2
// artifact, which is that form's own Save; and the requests it is
// scored on.
type lifecycleModel struct {
	label  string // the subtest prefix: "fitted " for a model fitted here
	name   string
	scorer func() Scorer // a fresh wrap of the served form
	v2     []byte
	v2path string
	views  bool // served from its artifact's bytes, not thawed: the micro model
	reqs   []Request
}

// lifecycleModels lists micro, PBM and DBN twice — fitted here, and
// thawed from the parent's fixtures (testdata/parent_0c75e9e) — and
// SDBN from its fixture. Every model is
// scored on its golden inputs, if it has any, and on every max_n and an
// unseen query over unseen documents, which take the prior paths.
func lifecycleModels(t *testing.T) []lifecycleModel {
	t.Helper()
	golden := readGolden(t, v1Parity)
	sessions := testSessions(600)
	dir := t.TempDir()
	var models []lifecycleModel
	add := func(label, name string, save func(io.Writer) error, scorer func() Scorer, reqs []Request) {
		var v2 bytes.Buffer
		if err := save(&v2); err != nil {
			t.Fatalf("%s %s: Save: %v", label, name, err)
		}
		path := filepath.Join(dir, label+name+".mbs2")
		if err := os.WriteFile(path, v2.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if name == NameMicro {
			for maxN := 0; maxN <= 3; maxN++ {
				reqs = append(reqs,
					Request{Lines: testLines, MaxN: maxN},
					Request{Lines: []string{"unknown terms only", "Flights!"}, MaxN: maxN})
			}
		} else {
			for i := range sessions[500:540] {
				reqs = append(reqs, Request{Session: &sessions[500+i]})
			}
			reqs = append(reqs, Request{Session: &clickmodel.Session{Query: "novel", Docs: []string{"zz", "a", "yy"}, Clicks: make([]bool, 3)}})
		}
		models = append(models, lifecycleModel{label: label, name: name, scorer: scorer, v2: v2.Bytes(), v2path: path, views: name == NameMicro, reqs: reqs})
	}

	micro := testMicroModel()
	add("fitted ", NameMicro, micro.Save, func() Scorer { return NewMicroScorer(micro) }, nil)
	for _, name := range []string{"pbm", "dbn"} {
		m := fitClick(t, name, sessions[:500])
		add("fitted ", name, m.Save, func() Scorer { return NewClickModelScorer(m) }, nil)
	}

	for _, name := range []string{NameMicro, "pbm", "dbn", "sdbn"} {
		fixture, err := os.ReadFile(filepath.Join(v1Parity.dir, name+".mbs2"))
		if err != nil {
			t.Fatal(err)
		}
		if name == NameMicro {
			a, err := snapshot.ParseV2(fixture)
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.CompiledFromArtifact(a)
			if err == nil {
				err = c.ValidateTables()
			}
			if err != nil {
				t.Fatal(err)
			}
			add("", name, c.SaveV2, func() Scorer { return NewCompiledMicroScorer(c) }, golden.requests(name))
		} else {
			m, err := clickmodel.LoadModel(bytes.NewReader(fixture))
			if err != nil {
				t.Fatal(err)
			}
			add("", name, m.Save, func() Scorer { return NewClickModelScorer(m) }, golden.requests(name))
		}
		if name != NameMicro {
			fixture = withoutProbeTables(t, fixture)
		}
		if own := models[len(models)-1].v2; !bytes.Equal(own, fixture) {
			t.Fatalf("%s: the thawed model's own Save is not the fixture, less any probe table (%d vs %d bytes)", name, len(own), len(fixture))
		}
	}
	return models
}

// sameScores compares two engines' answers over a model's requests to
// the 1e-12 of the parity suites.
func sameScores(t *testing.T, what string, got, want []Response) {
	t.Helper()
	for i := range want {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("%s req %d: errors %v / %v", what, i, got[i].Err, want[i].Err)
		}
		if math.Abs(got[i].CTR-want[i].CTR) > 1e-12 || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("%s req %d: (%v, %v), want (%v, %v)", what, i, got[i].CTR, got[i].Score, want[i].CTR, want[i].Score)
		}
		if len(got[i].Positions) != len(want[i].Positions) {
			t.Fatalf("%s req %d: %d positions, want %d", what, i, len(got[i].Positions), len(want[i].Positions))
		}
		for j := range want[i].Positions {
			if math.Abs(got[i].Positions[j]-want[i].Positions[j]) > 1e-12 {
				t.Fatalf("%s req %d pos %d: %v, want %v", what, i, j, got[i].Positions[j], want[i].Positions[j])
			}
		}
	}
}

// TestInstallLifecycle follows one version from every way in — a
// fitted or thawed scorer through Install, a v2 stream, a v2 file
// trusted and verified — for the micro model, which is served from its
// artifact, and three click models, which every load thaws, to the day
// it is pruned: what Models() says about it, what it scores, that
// SaveSnapshot exports the model's own Save and that this loads back,
// that a click-model load leaves its artifact drained at once, and that
// the keep window lets go of the bytes the micro model was served from.
func TestInstallLifecycle(t *testing.T) {
	routes := []struct {
		name    string
		source  string // ModelInfo.Source
		backed  bool   // a viewing model is served from a v2 artifact the version table owns
		install func(e *Engine, m lifecycleModel) (ModelInfo, error)
	}{
		{"fitted Install", SourceOnline, false, func(e *Engine, m lifecycleModel) (ModelInfo, error) {
			return e.Install(m.name, m.scorer(), SourceOnline)
		}},
		{"v2 stream", "snapshot", true, func(e *Engine, m lifecycleModel) (ModelInfo, error) {
			return e.LoadSnapshot("", bytes.NewReader(m.v2))
		}},
		{"v2 file trusted", "snapshot", true, func(e *Engine, m lifecycleModel) (ModelInfo, error) {
			return e.LoadSnapshotFile("", m.v2path)
		}},
		{"v2 file verified", "snapshot", true, func(e *Engine, m lifecycleModel) (ModelInfo, error) {
			return e.LoadSnapshotFileVerified("", m.v2path)
		}},
	}
	ctx := context.Background()
	for _, m := range lifecycleModels(t) {
		// The reference answers: the fitted form, never serialised.
		ref := New()
		installed(t, ref, m.name, m.scorer())
		reqs := make([]Request, len(m.reqs))
		for i, r := range m.reqs {
			r.Model = m.name
			reqs[i] = r
		}
		want := ref.ScoreBatch(ctx, reqs)

		for _, rt := range routes {
			t.Run(m.label+m.name+"/"+rt.name, func(t *testing.T) {
				e := New(WithKeepVersions(1))
				info, err := rt.install(e, m)
				if err != nil {
					t.Fatal(err)
				}
				if info.Name != m.name || info.Version != 1 || !info.Latest || info.Source != rt.source || info.Params <= 0 {
					t.Fatalf("info = %+v, want %s@1 latest, source %q, params > 0", info, m.name, rt.source)
				}
				if got := e.Models(); len(got) != 1 || got[0] != info {
					t.Fatalf("Models() = %+v, want [%+v]", got, info)
				}
				sameScores(t, "installed", e.ScoreBatch(ctx, reqs), want)

				backed := rt.backed && m.views
				art := e.tab.Load().entries[m.name].versions[1].art
				if (art != nil) != backed {
					t.Fatalf("artifact-backed = %v, want %v", art != nil, backed)
				}
				if rt.backed && !m.views {
					art, err := mmap.Open(m.v2path)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := New().load("", art, rt.name == "v2 file verified"); err != nil {
						t.Fatal(err)
					}
					if !drained(art) {
						t.Fatal("a thawed click model left a reference on its artifact")
					}
				}
				if backed && drained(art) {
					t.Fatal("the idle artifact drained while the table holds it")
				}

				// Export: a fitted or thawed form writes its own Save, the
				// artifact-backed micro model re-emits the bytes it serves —
				// the same bytes either way. They load back, under an explicit
				// name, and score the same.
				var out bytes.Buffer
				if err := e.SaveSnapshot(m.name, &out); err != nil {
					t.Fatalf("SaveSnapshot: %v", err)
				}
				if !bytes.Equal(out.Bytes(), m.v2) {
					t.Fatalf("the export is not the model's own Save (%d vs %d bytes)", out.Len(), len(m.v2))
				}
				back := New()
				binfo, err := back.LoadSnapshot("canary", &out)
				if err != nil {
					t.Fatalf("loading the export back: %v", err)
				}
				if binfo.Name != "canary" || binfo.Source != "snapshot" {
					t.Fatalf("explicit name ignored: %+v", binfo)
				}
				canary := make([]Request, len(reqs))
				for i, r := range reqs {
					r.Model = "canary"
					canary[i] = r
				}
				sameScores(t, "round trip", back.ScoreBatch(ctx, canary), want)

				// The next version pushes this one out of the keep window;
				// with no reader pinning it, its bytes are released.
				installed(t, e, m.name, m.scorer())
				if got := e.Models(); len(got) != 1 || got[0].Version != 2 {
					t.Fatalf("after the second install Models() = %+v, want only version 2", got)
				}
				if backed && !drained(art) {
					t.Fatal("the pruned artifact is still referenced")
				}
			})
		}
	}
}

// rebuiltV2 re-emits a v2 artifact under a (possibly different) model
// name, passing each int32 section through mangle and each float
// section through mangleFloats first; every CRC of the result is valid.
func rebuiltV2(t *testing.T, blob []byte, model string, mangle func(tag string, ids []int32), mangleFloats func(tag string, f []float64)) []byte {
	t.Helper()
	a, err := snapshot.ParseV2(blob)
	if err != nil {
		t.Fatal(err)
	}
	w := snapshot.NewV2Writer(model)
	for _, s := range a.Sections {
		switch s.Kind {
		case snapshot.V2Float64:
			v, _ := a.FloatsView(s.Tag)
			f := append([]float64(nil), v...)
			mangleFloats(s.Tag, f)
			w.Floats(s.Tag, f)
		case snapshot.V2Int32:
			v, _ := a.Int32sView(s.Tag)
			ids := append([]int32(nil), v...)
			mangle(s.Tag, ids)
			w.Int32s(s.Tag, ids)
		case snapshot.V2Uint32:
			u, _ := a.Uint32sView(s.Tag)
			w.Uint32s(s.Tag, u)
		default:
			b, _ := a.BytesView(s.Tag)
			w.Bytes(s.Tag, b)
		}
	}
	var out bytes.Buffer
	if _, err := w.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestLoadRejectionsReleaseArtifact is the fail-closed half of the
// lifecycle: whatever makes load refuse a v2 artifact, the mapping it
// opened is gone by the time load returns (drained, so unmapped),
// nothing was published, and the version that was serving still is.
// The same inputs are then put through the public entry points, which
// must refuse them too.
func TestLoadRejectionsReleaseArtifact(t *testing.T) {
	good := fitClick(t, "pbm", testSessions(300))
	var buf bytes.Buffer
	if err := good.Save(&buf); err != nil {
		t.Fatal(err)
	}
	pbm := buf.Bytes()
	keep := func(string, []int32) {}
	keepFloats := func(string, []float64) {}

	flipped := append([]byte(nil), pbm...)
	flipped[len(flipped)-2] ^= 0x01 // a payload byte: the structure parses, a section CRC does not match
	var micro bytes.Buffer
	if err := testMicroModel().Save(&micro); err != nil {
		t.Fatal(err)
	}
	// Relevances of 5 and an attention cell (1, 1) of 3 under valid CRCs:
	// served, "flights" would score a CTR of 13.
	outOfRange := rebuiltV2(t, micro.Bytes(), NameMicro, keep, func(tag string, f []float64) {
		switch tag {
		case "rel":
			for i := range f {
				f[i] = 5
			}
		case "attw":
			f[0] = 3
		}
	})

	cases := []struct {
		name, install string
		blob          []byte
		verify        bool
		wantErr       string
	}{
		{"bad name", "@", pbm, false, "'@'"},
		{"name@version", "pbm@2", pbm, false, "'@'"},
		{"unknown model in the header", "", rebuiltV2(t, pbm, "ghost", keep, keepFloats), false, "ghost"},
		{"failed Verify", "pbm", flipped, true, "checksum"},
		{"failed ValidateTables", "pbm", rebuiltV2(t, pbm, "PBM", func(tag string, ids []int32) {
			if tag == "p.q" {
				ids[0] = 1 << 30 // valid CRC, pair 0 names a query far outside the vocabulary
			}
		}, keepFloats), false, "out-of-range"},
		{"pbm attractiveness out of range", "pbm", rebuiltV2(t, pbm, "PBM", keep, func(tag string, f []float64) {
			if tag == "a.vals" {
				f[0] = 7 // valid CRC: served, the pair would score P(C_1) = 7·gamma_1
			}
		}), false, "outside [0, 1]"},
		{"micro tables out of range", "", outOfRange, true, "corrupt artifact"},
	}
	ctx := context.Background()
	probe := Request{Model: "pbm", Session: &clickmodel.Session{Query: "q", Docs: []string{"a", "b"}, Clicks: make([]bool, 2)}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			installed(t, e, "pbm", NewClickModelScorer(good))
			before := e.Models()

			path := filepath.Join(t.TempDir(), "artifact.mbs2")
			if err := os.WriteFile(path, tc.blob, 0o644); err != nil {
				t.Fatal(err)
			}
			art, err := mmap.Open(path)
			if err != nil {
				t.Fatalf("the case does not test the release: %v", err)
			}
			if _, err := e.load(tc.install, art, tc.verify); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("load error = %v, want one mentioning %q", err, tc.wantErr)
			}
			if !drained(art) {
				t.Fatal("a refused load left a reference on the mapping")
			}

			if _, err := e.LoadSnapshotFileVerified(tc.install, path); err == nil {
				t.Error("LoadSnapshotFileVerified accepted it")
			}
			if _, err := e.LoadSnapshot(tc.install, bytes.NewReader(tc.blob)); err == nil {
				t.Error("LoadSnapshot accepted it")
			}
			if !tc.verify {
				if _, err := e.LoadSnapshotFile(tc.install, path); err == nil {
					t.Error("LoadSnapshotFile accepted it")
				}
			}
			if got := e.Models(); len(got) != 1 || got[0] != before[0] {
				t.Fatalf("Models() = %+v after refused loads, want %+v", got, before)
			}
			if resp, err := e.ScoreCTR(ctx, probe); err != nil || resp.ModelVersion != 1 {
				t.Fatalf("prior version no longer serving: %+v, %v", resp, err)
			}
		})
	}
}
