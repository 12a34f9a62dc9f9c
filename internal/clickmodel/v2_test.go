package clickmodel

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mmap"
	"repro/internal/snapshot"
)

// v2Mapped round-trips a fitted model through a v2 artifact into its
// mapped serving view.
func v2Mapped(t *testing.T, m Model) Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	a, err := snapshot.ParseV2(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseV2: %v", err)
	}
	if err := a.VerifySections(); err != nil {
		t.Fatalf("VerifySections: %v", err)
	}
	mapped, views, err := FromArtifact(a)
	if err != nil || !views {
		t.Fatalf("FromArtifact: views %v, %v", views, err)
	}
	return mapped
}

// TestV2MappedParity fits PBM and DBN, round-trips each through a v2
// artifact, and pins mapped-vs-map predictions (ClickProbsInto,
// SessionLogLikelihood, ExaminationProbs) to 1e-12 on held-out
// sessions including unseen queries and documents (the prior paths).
func TestV2MappedParity(t *testing.T) {
	train := snapSessions(303, 800, 6)
	eval := snapSessions(404, 80, 6)
	eval = append(eval,
		Session{Query: "novel query", Docs: []string{"zz", "yy", "xx"}, Clicks: []bool{true, false, false}},
		Session{Query: "flights", Docs: []string{"qq", "a", "rr"}, Clicks: []bool{false, true, false}},
		Session{Query: "hotels", Docs: []string{"solo"}, Clicks: []bool{false}},
	)

	for _, name := range []string{"PBM", "DBN"} {
		t.Run(name, func(t *testing.T) {
			fitted := fitFresh(t, name, train)
			mapped := v2Mapped(t, fitted)
			if mapped.Name() != fitted.Name() {
				t.Fatalf("mapped Name = %q, want %q", mapped.Name(), fitted.Name())
			}
			if got, want := ParamCount(mapped), ParamCount(fitted); got != want {
				t.Fatalf("ParamCount = %d, want %d", got, want)
			}
			var buf []float64
			for i, s := range eval {
				want := fitted.ClickProbsInto(s, nil)
				buf = mapped.(InplaceScorer).ClickProbsInto(s, buf)
				if len(buf) != len(want) {
					t.Fatalf("session %d: %d probs, want %d", i, len(buf), len(want))
				}
				for j := range want {
					if math.Abs(buf[j]-want[j]) > 1e-12 {
						t.Fatalf("session %d pos %d: mapped %v, map %v", i, j, buf[j], want[j])
					}
				}
				if a, b := fitted.SessionLogLikelihood(s), mapped.SessionLogLikelihood(s); math.Abs(a-b) > 1e-12 {
					t.Fatalf("session %d: LL map %v, mapped %v", i, a, b)
				}
				we := fitted.(Examiner).ExaminationProbs(s)
				ge := mapped.(Examiner).ExaminationProbs(s)
				for j := range we {
					if math.Abs(we[j]-ge[j]) > 1e-12 {
						t.Fatalf("session %d pos %d: exam map %v, mapped %v", j, i, we[j], ge[j])
					}
				}
			}
		})
	}
}

// TestV2MappedReExport round-trips mapped → Save → mapped again and
// checks predictions are preserved (the replica-sync path re-exports
// from a mapping).
func TestV2MappedReExport(t *testing.T) {
	train := snapSessions(505, 400, 5)
	eval := snapSessions(606, 30, 5)
	for _, name := range []string{"PBM", "DBN"} {
		fitted := fitFresh(t, name, train)
		mapped := v2Mapped(t, fitted)
		again := v2Mapped(t, mapped)
		for _, s := range eval {
			a := mapped.ClickProbsInto(s, nil)
			b := again.ClickProbsInto(s, nil)
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s: re-exported artifact diverges at pos %d: %v vs %v", name, j, a[j], b[j])
				}
			}
		}
	}
}

func TestV2MappedImmutable(t *testing.T) {
	fitted := fitFresh(t, "PBM", snapSessions(1, 100, 4))
	mapped := v2Mapped(t, fitted)
	if err := mapped.FitLog(nil); !errors.Is(err, ErrMappedImmutable) {
		t.Fatalf("FitLog err = %v, want ErrMappedImmutable", err)
	}
}

// TestV2MappedWritesCannotFault maps a PBM artifact read-only, as the
// serving path does, and then does everything a caller holding the
// *PBM can do to change it: Fit, FitLog, and a store through the
// exported Gamma. Each must be refused or land in heap memory; a store
// into the PROT_READ mapping would kill the process with SIGSEGV, so
// reaching the end of the test is the assertion. The scores are
// compared before and after to show the refusals changed nothing.
func TestV2MappedWritesCannotFault(t *testing.T) {
	train := snapSessions(11, 300, 5)
	var buf bytes.Buffer
	if err := fitFresh(t, "PBM", train).Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pbm.mbs2")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	art, err := mmap.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer art.Release()
	served, _, err := FromArtifact(art.V2Artifact)
	if err != nil {
		t.Fatal(err)
	}
	m := served.(*PBM)
	s := train[0]
	before := m.ClickProbsInto(s, nil)

	if err := fitSessions(m, train); !errors.Is(err, ErrMappedImmutable) {
		t.Errorf("fit err = %v, want ErrMappedImmutable", err)
	}
	c, err := Compile(train)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FitLog(c); !errors.Is(err, ErrMappedImmutable) {
		t.Errorf("FitLog err = %v, want ErrMappedImmutable", err)
	}
	if got := m.ClickProbsInto(s, nil); !reflect.DeepEqual(got, before) {
		t.Errorf("refused writes changed the scores: %v, was %v", got, before)
	}

	// Gamma is a heap copy: the store succeeds, is observed by scoring,
	// and leaves the artifact's own section as it was.
	m.Gamma[0] = 0.25
	if got := m.ClickProbsInto(s, nil)[0]; got == before[0] {
		t.Errorf("a store through Gamma was not observed: position 0 still scores %v", got)
	}
	mapped, err := art.FloatsView("gamma")
	if err != nil {
		t.Fatal(err)
	}
	if mapped[0] == 0.25 {
		t.Error("the store through Gamma reached the mapped section")
	}
}

// TestV2MappedZeroAllocScore: every model's warm ClickProbsInto into
// a reused buffer allocates nothing, fitted and served from a mapped
// artifact, over seen and unseen documents.
func TestV2MappedZeroAllocScore(t *testing.T) {
	train := snapSessions(2, 300, 5)
	s := train[0]
	for i := 1; len(s.Docs) < 4; i++ {
		s = train[i]
	}
	s = Session{Query: s.Query, Docs: append(s.Docs[:4:4], "unseen"), Clicks: make([]bool, 5)}
	for _, name := range Names() {
		fitted := fitFresh(t, name, train)
		path := filepath.Join(t.TempDir(), name+".mbs2")
		if err := snapshot.WriteFileAtomic(path, fitted.Save); err != nil {
			t.Fatal(err)
		}
		art, err := mmap.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer art.Release()
		served, _, err := FromArtifact(art.V2Artifact)
		if err != nil {
			t.Fatal(err)
		}
		for form, m := range map[string]Model{"fitted": fitted, "mapped": served} {
			buf := m.ClickProbsInto(s, nil)
			if allocs := testing.AllocsPerRun(200, func() { buf = m.ClickProbsInto(s, buf) }); allocs != 0 {
				t.Errorf("%s %s: ClickProbsInto allocates %v/op, want 0", form, name, allocs)
			}
		}
	}
}

func TestV2MappedRejectsCorruptPairs(t *testing.T) {
	fitted := fitFresh(t, "DBN", snapSessions(4, 200, 5))
	var buf bytes.Buffer
	if err := fitted.Save(&buf); err != nil {
		t.Fatal(err)
	}
	orig, err := snapshot.ParseV2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the artifact with one section dropped or mangled; the
	// loader must fail closed.
	rebuild := func(mangle func(tag string, w *snapshot.V2Writer, a *snapshot.V2Artifact) bool) ([]byte, error) {
		return rebuildV2(orig, mangle)
	}

	for _, drop := range []string{"meta", "q.blob", "p.q", "p.tabl", "a.vals", "s.vals"} {
		b, err := rebuild(func(tag string, w *snapshot.V2Writer, a *snapshot.V2Artifact) bool { return tag == drop })
		if err != nil {
			t.Fatal(err)
		}
		a, err := snapshot.ParseV2(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := FromArtifact(a); err == nil {
			t.Errorf("accepted an artifact missing %q", drop)
		}
	}

	// Truncated value array (fewer values than pairs).
	b, err := rebuild(func(tag string, w *snapshot.V2Writer, a *snapshot.V2Artifact) bool {
		if tag == "a.vals" {
			f, _ := a.FloatsView(tag)
			w.Floats(tag, f[:len(f)/2])
			return true
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.ParseV2(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := FromArtifact(a); err == nil {
		t.Error("accepted a value array shorter than the pair table")
	}

	// Pair IDs out of vocabulary range: the constructor stays O(1) in
	// artifact size, so this corruption is NOT caught at wrap time — it
	// must build, score without panicking (the probe loop degrades to
	// misses), and fail the deep scan verified loads run before install.
	b, err = rebuild(func(tag string, w *snapshot.V2Writer, a *snapshot.V2Artifact) bool {
		if tag == "p.q" {
			v, _ := a.Int32sView(tag)
			bad := append([]int32(nil), v...)
			bad[0] = 1 << 30
			w.Int32s(tag, bad)
			return true
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err = snapshot.ParseV2(b)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := FromArtifact(a)
	if err != nil {
		t.Fatalf("O(1) constructor rejected deferred-validation corruption: %v", err)
	}
	if probs := m.ClickProbsInto(Session{Query: "q0", Docs: []string{"d0", "d1"}}, nil); len(probs) != 2 {
		t.Fatalf("corrupt-table scoring returned %d probs, want 2", len(probs))
	}
	dv, ok := m.(interface{ ValidateTables() error })
	if !ok {
		t.Fatalf("mapped model %T lacks ValidateTables", m)
	}
	if err := dv.ValidateTables(); err == nil {
		t.Error("deep validation accepted out-of-range pair IDs")
	}

	// A thawed model reads every pair, so the same damage — and any
	// damage to BBM's CSR skip counts — fails at construction.
	deep := make([]Session, 12)
	for k := range deep {
		s := Session{Query: "q", Docs: make([]string, 46), Clicks: make([]bool, 46)}
		for i := range s.Docs {
			s.Docs[i] = docName((i + k) % simDocs)
			s.Clicks[i] = (i*k+3)%11 == 0
		}
		deep[k] = s
	}
	sparse := NewBBM()
	sparse.Browse.Iterations = 2
	if err := fitSessions(sparse, deep); err != nil {
		t.Fatal(err)
	}
	if sparse.nonClickS == nil {
		t.Fatal("the BBM did not reach the sparse layout")
	}
	ints := func(tag string, edit func([]int32)) func(string, *snapshot.V2Writer, *snapshot.V2Artifact) bool {
		return func(s string, w *snapshot.V2Writer, a *snapshot.V2Artifact) bool {
			if s != tag {
				return false
			}
			v, _ := a.Int32sView(tag)
			v = append([]int32(nil), v...)
			edit(v)
			w.Int32s(tag, v)
			return true
		}
	}
	drop := func(tag string) func(string, *snapshot.V2Writer, *snapshot.V2Artifact) bool {
		return func(s string, _ *snapshot.V2Writer, _ *snapshot.V2Artifact) bool { return s == tag }
	}
	for _, tc := range []struct {
		name   string
		model  Model
		mangle func(string, *snapshot.V2Writer, *snapshot.V2Artifact) bool
	}{
		{"sdbn/no s.vals", fitFresh(t, "SDBN", snapSessions(4, 200, 5)), drop("s.vals")},
		{"sdbn/no d.offs", fitFresh(t, "SDBN", snapSessions(4, 200, 5)), drop("d.offs")},
		{"sdbn/pair query out of range", fitFresh(t, "SDBN", snapSessions(4, 200, 5)), ints("p.q", func(v []int32) { v[0] = 1 << 30 })},
		{"sdbn/pair doc out of range", fitFresh(t, "SDBN", snapSessions(4, 200, 5)), ints("p.d", func(v []int32) { v[len(v)-1] = -2 })},
		{"sdbn/bucket out of range", fitFresh(t, "SDBN", snapSessions(4, 200, 5)), ints("p.tabl", func(v []int32) { v[0] = 1 << 20 })},
		{"bbm/no c.vals", sparse, drop("c.vals")},
		{"bbm/no n.off", sparse, drop("n.off")},
		{"bbm/no n.cell", sparse, drop("n.cell")},
		{"bbm/no n.cnt", sparse, drop("n.cnt")},
		{"bbm/cell out of range", sparse, ints("n.cell", func(v []int32) { v[len(v)/2] = 1 << 20 })},
		{"bbm/negative cell", sparse, ints("n.cell", func(v []int32) { v[0] = -1 })},
		{"bbm/offsets decrease", sparse, ints("n.off", func(v []int32) { v[1], v[2] = v[2], v[1]-1 })},
		{"bbm/offsets overrun", sparse, ints("n.off", func(v []int32) { v[len(v)-1]++ })},
	} {
		var buf bytes.Buffer
		if err := tc.model.Save(&buf); err != nil {
			t.Fatal(err)
		}
		orig, err := snapshot.ParseV2(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := FromArtifact(orig); err != nil {
			t.Fatalf("%s: the unmangled artifact fails: %v", tc.name, err)
		}
		b, err := rebuildV2(orig, tc.mangle)
		if err != nil {
			t.Fatal(err)
		}
		a, err := snapshot.ParseV2(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := FromArtifact(a); err == nil {
			t.Errorf("%s: a thawed model accepted it", tc.name)
		}
	}
}

// rebuildV2 re-emits a parsed artifact section by section; mangle may
// write a replacement for a section (or nothing, dropping it) and
// report true to have the original skipped.
func rebuildV2(orig *snapshot.V2Artifact, mangle func(tag string, w *snapshot.V2Writer, a *snapshot.V2Artifact) bool) ([]byte, error) {
	w := snapshot.NewV2Writer(orig.ModelName)
	for _, s := range orig.Sections {
		if mangle(s.Tag, w, orig) {
			continue
		}
		switch s.Kind {
		case snapshot.V2Float64:
			f, _ := orig.FloatsView(s.Tag)
			w.Floats(s.Tag, f)
		case snapshot.V2Int32:
			v, _ := orig.Int32sView(s.Tag)
			w.Int32s(s.Tag, v)
		case snapshot.V2Uint32:
			u, _ := orig.Uint32sView(s.Tag)
			w.Uint32s(s.Tag, u)
		default:
			b, _ := orig.BytesView(s.Tag)
			w.Bytes(s.Tag, b)
		}
	}
	var out bytes.Buffer
	if _, err := w.WriteTo(&out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// TestV2MappedLoadsUntaggedArtifact is the compatibility pin for the
// macro models: a PBM or DBN artifact written before the vocabularies
// carried tags (no q.tags / d.tags) loads — the tags are derived — passes
// deep validation, and scores bit for bit what the tagged one scores,
// known pairs and prior fallbacks alike.
func TestV2MappedLoadsUntaggedArtifact(t *testing.T) {
	train := snapSessions(707, 400, 5)
	eval := append(snapSessions(808, 40, 5),
		Session{Query: "novel query", Docs: []string{"zz", "yy"}, Clicks: []bool{true, false}})
	for _, name := range []string{"PBM", "DBN"} {
		var buf bytes.Buffer
		if err := fitFresh(t, name, train).Save(&buf); err != nil {
			t.Fatal(err)
		}
		orig, err := snapshot.ParseV2(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		tagged, _, err := FromArtifact(orig)
		if err != nil {
			t.Fatal(err)
		}
		dropped := 0
		b, err := rebuildV2(orig, func(tag string, _ *snapshot.V2Writer, _ *snapshot.V2Artifact) bool {
			if tag == "q.tags" || tag == "d.tags" {
				dropped++
				return true
			}
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		if dropped != 2 {
			t.Fatalf("%s: artifact carries %d vocabulary tag sections, want 2", name, dropped)
		}
		a, err := snapshot.ParseV2(b)
		if err != nil {
			t.Fatal(err)
		}
		untagged, _, err := FromArtifact(a)
		if err != nil {
			t.Fatalf("%s: untagged artifact: %v", name, err)
		}
		if err := untagged.(interface{ ValidateTables() error }).ValidateTables(); err != nil {
			t.Fatalf("%s: untagged artifact fails deep validation: %v", name, err)
		}
		for i, s := range eval {
			want, got := tagged.ClickProbsInto(s, nil), untagged.ClickProbsInto(s, nil)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s session %d pos %d: untagged %v, tagged %v", name, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestFrozenPairsFullTableTerminates is the pair-table half of the
// hostile-artifact regression (see textproc's
// TestFrozenVocabFullTableTerminates): a probe table with no empty
// bucket and only valid pair IDs must end an absent pair's probe in a
// miss after one pass, not spin the serving goroutine — a trusted load
// serves such a table unvalidated. The deep checks refuse it: a pair
// no bucket names cannot be found.
func TestFrozenPairsFullTableTerminates(t *testing.T) {
	p := freezePairs([]qd{{q: "q0", d: "d0"}, {q: "q1", d: "d1"}})
	for i := range p.tab {
		p.tab[i] = 0 // every bucket names pair 0 = (q0, d0)
	}
	if err := p.validate(); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("validate of a table that cannot find pair 1 = %v, want ErrCorrupt", err)
	}
	if id, ok := p.find("q1", "d1"); ok {
		t.Errorf("find of a pair no bucket names resolved to %d", id)
	}
	if id, ok := p.find("q0", "d0"); !ok || id != 0 {
		t.Errorf("find(q0, d0) = %d, %v; want 0, true", id, ok)
	}
}
