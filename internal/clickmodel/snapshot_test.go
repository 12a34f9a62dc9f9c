package clickmodel

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mmap"
	"repro/internal/snapshot"
)

// snapSessions builds a multi-query log with varying result-list
// depths, so snapshots carry non-trivial vocabularies, triangular
// tables and position arrays.
func snapSessions(seed int64, n, maxDepth int) []Session {
	rng := rand.New(rand.NewSource(seed))
	queries := []string{"flights", "hotels", "insurance", "rental cars", "cruises"}
	out := make([]Session, n)
	for k := range out {
		depth := 2 + rng.Intn(maxDepth-1)
		s := Session{
			Query:  queries[rng.Intn(len(queries))],
			Docs:   make([]string, depth),
			Clicks: make([]bool, depth),
		}
		perm := rng.Perm(simDocs)
		for i := 0; i < depth; i++ {
			d := perm[i]
			s.Docs[i] = docName(d)
			s.Clicks[i] = rng.Float64() < truthAlpha(d)/(1.0+float64(i))
		}
		out[k] = s
	}
	return out
}

// fitFresh fits one model by name at 5 EM iterations.
func fitFresh(t *testing.T, name string, sessions []Session) Model {
	t.Helper()
	c, err := Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(name, 5, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameAnswers pins got's predictions (ClickProbsInto, SessionLogLikelihood,
// ExaminationProbs) to want's within 1e-12 on eval.
func sameAnswers(t *testing.T, what string, want, got Model, eval []Session) {
	t.Helper()
	for i, s := range eval {
		w, g := want.ClickProbsInto(s, nil), got.ClickProbsInto(s, nil)
		if len(w) != len(g) {
			t.Fatalf("%s session %d: %d probs, want %d", what, i, len(g), len(w))
		}
		for j := range w {
			if math.Abs(w[j]-g[j]) > 1e-12 {
				t.Errorf("%s session %d pos %d: ClickProbsInto %v, want %v", what, i, j, g[j], w[j])
			}
		}
		wll, gll := want.SessionLogLikelihood(s), got.SessionLogLikelihood(s)
		if math.Abs(wll-gll) > 1e-12 {
			t.Errorf("%s session %d: LL %v, want %v", what, i, gll, wll)
		}
		if ex, ok := want.(Examiner); ok {
			we, ge := ex.ExaminationProbs(s), got.(Examiner).ExaminationProbs(s)
			for j := range we {
				if math.Abs(we[j]-ge[j]) > 1e-12 {
					t.Errorf("%s session %d pos %d: ExaminationProbs %v, want %v", what, i, j, ge[j], we[j])
				}
			}
		}
	}
}

// TestSnapshotRoundTrip is the per-model property test: fit → Save →
// Load into a fresh instance, LoadModel through the registry, and
// FromArtifact over a read-only file mapping (the engine's load) →
// identical predictions within 1e-12 on held-out sessions, including
// sessions with unseen queries and documents so the round-tripped
// priors are exercised too. Each of the three re-saves the original
// bytes. The model FromArtifact thaws is scored after its mapping is
// gone: it must not pin the artifact.
func TestSnapshotRoundTrip(t *testing.T) {
	train := snapSessions(101, 800, 6)
	eval := snapSessions(202, 60, 6)
	// Unseen query and unseen docs hit every prior/fallback path.
	eval = append(eval,
		Session{Query: "novel query", Docs: []string{"zz", "yy", "xx"}, Clicks: []bool{true, false, false}},
		Session{Query: "flights", Docs: []string{"qq", "a", "rr"}, Clicks: []bool{false, true, false}},
	)

	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			fitted := fitFresh(t, name, train)

			var buf bytes.Buffer
			if err := fitted.Save(&buf); err != nil {
				t.Fatalf("save: %v", err)
			}
			if !bytes.HasPrefix(buf.Bytes(), []byte(snapshot.V2Magic)) {
				t.Fatalf("Save wrote %q, not a v2 artifact", buf.Bytes()[:4])
			}
			resaves := func(what string, m Model) {
				t.Helper()
				var again bytes.Buffer
				if err := m.Save(&again); err != nil {
					t.Fatalf("%s re-save: %v", what, err)
				}
				if !bytes.Equal(buf.Bytes(), again.Bytes()) {
					t.Errorf("%s re-saved artifact differs from the original", what)
				}
			}

			viaRegistry, err := LoadModel(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("LoadModel: %v", err)
			}
			sameAnswers(t, "LoadModel", fitted, viaRegistry, eval)
			resaves("LoadModel", viaRegistry)

			path := filepath.Join(t.TempDir(), name+".mbs2")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			art, err := mmap.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := FromArtifact(art.V2Artifact)
			art.Release() // unmapped: a model reading it would fault
			if err != nil {
				t.Fatalf("FromArtifact: %v", err)
			}
			sameAnswers(t, "thawed", fitted, mapped, eval)
			resaves("thawed", mapped)

			if ParamCount(fitted) <= 0 || ParamCount(mapped) != ParamCount(fitted) {
				t.Errorf("ParamCount(%s) = %d fitted, %d loaded", name, ParamCount(fitted), ParamCount(mapped))
			}
		})
	}
}

// TestSnapshotBBMSparse forces BBM's sparse skip-count fallback (deep
// result lists) through the codec.
func TestSnapshotBBMSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	depth := 50 // tri(50) > maxDenseBBMCells → sparse layout
	sessions := make([]Session, 40)
	for k := range sessions {
		s := Session{Query: "q", Docs: make([]string, depth), Clicks: make([]bool, depth)}
		for i := 0; i < depth; i++ {
			s.Docs[i] = docName(i % simDocs)
			s.Clicks[i] = rng.Float64() < 0.2/(1+float64(i))
		}
		sessions[k] = s
	}
	m := NewBBM()
	m.Browse.Iterations = 2
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	if m.nonClickS == nil {
		t.Fatal("test did not reach the sparse layout")
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fresh := loaded.(*BBM)
	if fresh.nonClickS == nil {
		t.Fatal("the sparse layout did not survive the round trip")
	}
	for i, s := range sessions[:5] {
		want, got := m.ClickProbsInto(s, nil), fresh.ClickProbsInto(s, nil)
		for j := range want {
			if math.Abs(want[j]-got[j]) > 1e-12 {
				t.Fatalf("session %d pos %d: %v, want %v", i, j, got[j], want[j])
			}
		}
	}
	var again bytes.Buffer
	if err := fresh.Save(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatalf("re-save of the sparse BBM differs (err %v)", err)
	}
}

// TestBBMParamsOnlyRead: listing a BBM's parameters — ParamCount, the
// engine's concurrent Models() metadata, and Save — does not write the
// model, even one built without NewBBM.
func TestBBMParamsOnlyRead(t *testing.T) {
	bare := &BBM{}
	if ParamCount(bare) != 0 {
		t.Errorf("an unfitted BBM counts %d params", ParamCount(bare))
	}
	if err := bare.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	if bare.Browse != nil {
		t.Fatal("listing a bare BBM's parameters gave it a browsing layer")
	}
}

// TestLoadModelDispatch reads artifacts back through the registry
// without knowing the concrete type up front.
func TestLoadModelDispatch(t *testing.T) {
	sessions := snapSessions(303, 300, 5)
	for _, name := range []string{"pbm", "dbn", "sum"} {
		fitted := fitFresh(t, name, sessions)
		var buf bytes.Buffer
		if err := fitted.Save(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := LoadModel(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.EqualFold(m.Name(), name) {
			t.Errorf("LoadModel gave %q, want %q", m.Name(), name)
		}
		want, got := fitted.ClickProbsInto(sessions[0], nil), m.ClickProbsInto(sessions[0], nil)
		for j := range want {
			if math.Abs(want[j]-got[j]) > 1e-12 {
				t.Errorf("%s pos %d: %v, want %v", name, j, got[j], want[j])
			}
		}
	}
}

// TestSnapshotWrongModel: reading a model's parameters from an artifact
// that names another model is refused. LoadModel and FromArtifact build
// the model the header names, so only a registry name whose factory
// builds another model could reach the check.
func TestSnapshotWrongModel(t *testing.T) {
	sessions := snapSessions(404, 200, 4)
	pbm := fitFresh(t, "pbm", sessions)
	var buf bytes.Buffer
	if err := pbm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.ParseV2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := readArtifact(a, NewUBM()); err == nil || !strings.Contains(err.Error(), "PBM") {
		t.Fatalf("UBM read a PBM artifact: %v", err)
	}
}

// TestSnapshotRejectsDamage truncates a real artifact at every byte and
// flips every byte: no truncation loads, and a flip is detected or
// harmless — the rule TestV2EveryByteCorruptionDetectedOrHarmless
// states for the container. A flip nothing catches lies in bytes no
// reader looks at (padding between sections, the reserved header
// field), so what loads answers exactly what the original does.
func TestSnapshotRejectsDamage(t *testing.T) {
	sessions := snapSessions(505, 120, 4)
	pbm := fitFresh(t, "pbm", sessions)
	var buf bytes.Buffer
	if err := pbm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for cut := 0; cut < len(raw); cut++ {
		if _, err := LoadModel(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d loaded cleanly", cut, len(raw))
		}
	}
	harmless := func(m Model) bool {
		for _, s := range sessions[:20] {
			want, got := pbm.ClickProbsInto(s, nil), m.ClickProbsInto(s, nil)
			for j := range want {
				if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
					return false
				}
			}
		}
		return true
	}
	for i := range raw {
		bad := bytes.Clone(raw)
		bad[i] ^= 0x5A
		if m, err := LoadModel(bytes.NewReader(bad)); err == nil && !harmless(m) {
			t.Fatalf("flipped byte %d/%d loaded and changed the answers", i, len(raw))
		}
	}
}

// TestSnapshotRefusesBadTriangle: a hand-mangled UBM gamma table must
// fail Save rather than emit an artifact only the reader rejects; so
// must a negative count, which meta cannot hold.
func TestSnapshotRefusesBadTriangle(t *testing.T) {
	sessions := snapSessions(707, 100, 4)
	m := fitFresh(t, "ubm", sessions).(*UBM)
	m.Gamma[1] = m.Gamma[1][:1] // row 1 should have 2 cells
	if err := m.Save(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "triangular") {
		t.Fatalf("non-triangular gamma saved cleanly: %v", err)
	}
	b := fitFresh(t, "bbm", sessions).(*BBM)
	b.GridSize = -1
	if err := b.Save(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative grid size saved cleanly: %v", err)
	}
}

func TestSnapshotCorruptIsErrCorrupt(t *testing.T) {
	sessions := snapSessions(606, 100, 4)
	pbm := fitFresh(t, "pbm", sessions)
	var buf bytes.Buffer
	if err := pbm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // the last section's last payload byte
	if _, err := LoadModel(bytes.NewReader(raw)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("payload damage not ErrCorrupt: %v", err)
	}
}
