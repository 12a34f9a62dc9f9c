package clickmodel

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/mmap"
	"repro/internal/snapshot"
)

// v2Mapped round-trips a fitted model through a v2 artifact and loads
// it back the way the engine does, through FromArtifact.
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
	loaded, err := FromArtifact(a)
	if err != nil {
		t.Fatalf("FromArtifact: %v", err)
	}
	return loaded
}

// TestV2MappedParity fits PBM and DBN, round-trips each through a v2
// artifact, and pins loaded-vs-fitted predictions (ClickProbsInto,
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

// TestV2MappedReExport round-trips loaded → Save → loaded again and
// checks predictions are preserved (the replica-sync path re-exports a
// loaded model).
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

// zeroAllocSetup fits every registry model on a small log and loads
// each back from a mapped artifact, and returns a five-doc session of
// four seen documents and an unseen one, with its train log.
func zeroAllocSetup(t *testing.T) (s Session, train []Session, forms func(name string) map[string]Model) {
	train = snapSessions(2, 300, 5)
	s = train[0]
	for i := 1; len(s.Docs) < 4; i++ {
		s = train[i]
	}
	s = Session{Query: s.Query, Docs: append(s.Docs[:4:4], "unseen"), Clicks: make([]bool, 5)}
	return s, train, func(name string) map[string]Model {
		fitted := fitFresh(t, name, train)
		path := filepath.Join(t.TempDir(), name+".mbs2")
		if err := snapshot.WriteFileAtomic(path, fitted.Save); err != nil {
			t.Fatal(err)
		}
		art, err := mmap.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := FromArtifact(art.V2Artifact)
		art.Release()
		if err != nil {
			t.Fatal(err)
		}
		return map[string]Model{"fitted": fitted, "loaded": loaded}
	}
}

// TestV2MappedZeroAllocScore: every model's warm ClickProbsInto into
// a reused buffer allocates nothing, fitted and loaded from a mapped
// artifact, over seen and unseen documents.
func TestV2MappedZeroAllocScore(t *testing.T) {
	s, _, forms := zeroAllocSetup(t)
	for _, name := range Names() {
		for form, m := range forms(name) {
			buf := m.ClickProbsInto(s, nil)
			if allocs := testing.AllocsPerRun(200, func() { buf = m.ClickProbsInto(s, buf) }); allocs != 0 {
				t.Errorf("%s %s: ClickProbsInto allocates %v/op, want 0", form, name, allocs)
			}
		}
	}
}

// TestZeroAllocLogLikelihood: every model's SessionLogLikelihood
// allocates nothing, fitted and loaded from a mapped artifact, on
// sessions of up to maxStackPositions docs — with no click, a click
// mid-list and a click at the end, over seen and unseen documents.
func TestZeroAllocLogLikelihood(t *testing.T) {
	s, train, forms := zeroAllocSetup(t)
	deep := Session{Query: s.Query}
	for len(deep.Docs) < maxStackPositions {
		deep.Docs = append(deep.Docs, train[len(deep.Docs)].Docs[0])
		deep.Clicks = append(deep.Clicks, len(deep.Docs)%9 == 0)
	}
	sessions := []Session{s, deep}
	for _, click := range []int{1, len(s.Docs) - 1} {
		c := Session{Query: s.Query, Docs: s.Docs, Clicks: make([]bool, len(s.Docs))}
		c.Clicks[click] = true
		sessions = append(sessions, c)
	}
	for _, name := range Names() {
		for form, m := range forms(name) {
			for i, s := range sessions {
				if allocs := testing.AllocsPerRun(100, func() { m.SessionLogLikelihood(s) }); allocs != 0 {
					t.Errorf("%s %s session %d (%d docs): SessionLogLikelihood allocates %v/op, want 0", form, name, i, len(s.Docs), allocs)
				}
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

	for _, drop := range []string{"meta", "q.blob", "p.q", "a.vals", "s.vals"} {
		b, err := rebuild(func(tag string, w *snapshot.V2Writer, a *snapshot.V2Artifact) bool { return tag == drop })
		if err != nil {
			t.Fatal(err)
		}
		a, err := snapshot.ParseV2(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FromArtifact(a); err == nil {
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
	if _, err := FromArtifact(a); err == nil {
		t.Error("accepted a value array shorter than the pair table")
	}

	// Pair IDs out of vocabulary range: the load checks every pair
	// before it builds a key.
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
	if _, err := FromArtifact(a); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("the load of out-of-range pair IDs = %v, want ErrCorrupt", err)
	}

	// The same damage to another model, and any damage to BBM's CSR skip
	// counts, fails the load too.
	sparse, _ := sparseBBM(t)
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
	uints := func(tag string, edit func([]uint32)) func(string, *snapshot.V2Writer, *snapshot.V2Artifact) bool {
		return func(s string, w *snapshot.V2Writer, a *snapshot.V2Artifact) bool {
			if s != tag {
				return false
			}
			v, _ := a.Uint32sView(tag)
			v = append([]uint32(nil), v...)
			edit(v)
			w.Uint32s(tag, v)
			return true
		}
	}
	drop := func(tag string) func(string, *snapshot.V2Writer, *snapshot.V2Artifact) bool {
		return func(s string, _ *snapshot.V2Writer, _ *snapshot.V2Artifact) bool { return s == tag }
	}
	// short drops the last pair's doc.
	short := func(s string, w *snapshot.V2Writer, a *snapshot.V2Artifact) bool {
		if s != "p.d" {
			return false
		}
		v, _ := a.Int32sView(s)
		w.Int32s(s, v[:len(v)-1])
		return true
	}
	// repeat makes pair 1 name pair 0's query and doc.
	repeat := func(s string, w *snapshot.V2Writer, a *snapshot.V2Artifact) bool {
		return (s == "p.q" || s == "p.d") && ints(s, func(v []int32) { v[1] = v[0] })(s, w, a)
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
		{"sdbn/query offsets decrease", fitFresh(t, "SDBN", snapSessions(4, 200, 5)), uints("q.offs", func(v []uint32) { v[1] = v[2] + 1 })},
		{"sdbn/doc offsets overrun the blob", fitFresh(t, "SDBN", snapSessions(4, 200, 5)), uints("d.offs", func(v []uint32) { v[len(v)-1]++ })},
		{"sdbn/repeated pair", fitFresh(t, "SDBN", snapSessions(4, 200, 5)), repeat},
		{"sdbn/fewer pair docs than pair queries", fitFresh(t, "SDBN", snapSessions(4, 200, 5)), short},
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
		if _, err := FromArtifact(orig); err != nil {
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
		if _, err := FromArtifact(a); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: the load = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// sparseBBM fits a BBM on twelve 46-doc sessions over eight docs, deep
// enough for the sparse skip-count layout, and returns it with its log.
func sparseBBM(t *testing.T) (*BBM, []Session) {
	t.Helper()
	deep := make([]Session, 12)
	for k := range deep {
		s := Session{Query: "q", Docs: make([]string, 46), Clicks: make([]bool, 46)}
		for i := range s.Docs {
			s.Docs[i] = docName((i + k) % simDocs)
			s.Clicks[i] = (i*k+3)%11 == 0
		}
		deep[k] = s
	}
	m := NewBBM()
	m.Browse.Iterations = 2
	if err := fitSessions(m, deep); err != nil {
		t.Fatal(err)
	}
	if m.nonClickS == nil {
		t.Fatal("the BBM did not reach the sparse layout")
	}
	return m, deep
}

// TestBBMSparseMeansAreDeterministic: a sparse BBM sums each pair's
// skip counts in ascending cell order, as the dense layout does, so
// every fillMeans stores the same bits and the model its artifact thaws
// into answers the fitted one by bits. Summed in map order, most means
// differed in their last bits from one fill to the next.
func TestBBMSparseMeansAreDeterministic(t *testing.T) {
	m, deep := sparseBBM(t)
	first := slices.Clone(m.means)
	for fill := range 50 {
		m.fillMeans()
		for p, v := range m.means {
			if math.Float64bits(v) != math.Float64bits(first[p]) {
				t.Fatalf("fill %d: pair %d's mean is %v, the first fill stored %v", fill+2, p, v, first[p])
			}
		}
	}
	thawed := v2Mapped(t, m)
	for i, s := range deep {
		want, got := m.ClickProbsInto(s, nil), thawed.ClickProbsInto(s, nil)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("session %d pos %d: thawed %v, fitted %v", i, j, got[j], want[j])
			}
		}
		if a, b := m.SessionLogLikelihood(s), thawed.SessionLogLikelihood(s); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("session %d: log-likelihood thawed %v, fitted %v", i, b, a)
		}
	}
}

// TestLoadRefusesValuesOutsideTheirDomain: a load refuses, with
// ErrCorrupt, what would score a click probability outside [0, 1] — a
// PBM saved with every attractiveness at 7, which scored P(C_1) = 7,
// and a BBM saved with a grid of fewer than three points, which scored
// NaN — and, through every registry model's parameter list, an export
// whose first value of any one parameter is NaN, outside [0, 1] for a
// probability, or negative or infinite for a smoothing weight or BBM's
// counts. The models as fitted load.
func TestLoadRefusesValuesOutsideTheirDomain(t *testing.T) {
	train := snapSessions(9, 200, 5)
	load := func(m Model) (Model, error) {
		t.Helper()
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return LoadModel(&buf)
	}
	refused := func(what string, m Model) {
		t.Helper()
		if loaded, err := load(m); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: LoadModel = %v, want ErrCorrupt", what, err)
			if loaded != nil {
				t.Logf("%s: the loaded model scores %v", what, loaded.ClickProbsInto(train[0], nil))
			}
		}
	}

	pbm := fitFresh(t, "pbm", train).(*PBM)
	for i := range pbm.alphas {
		pbm.alphas[i] = 7
	}
	refused("a PBM with every attractiveness at 7", pbm)

	for _, size := range []int{0, 1, 2, minGridSize, 51, maxGridSize, maxGridSize + 1} {
		bbm := fitFresh(t, "bbm", train).(*BBM)
		bbm.GridSize = size
		if size >= minGridSize && size <= maxGridSize {
			if _, err := load(bbm); err != nil {
				t.Errorf("a BBM with a %d-point grid: %v", size, err)
			}
			continue
		}
		refused(fmt.Sprintf("a BBM with a %d-point grid", size), bbm)
	}

	for _, name := range Names() {
		m := fitFresh(t, name, train)
		if _, err := load(m); err != nil {
			t.Fatalf("%s as fitted: %v", name, err)
		}
		for i, p := range m.params() {
			var slot *float64
			switch p.kind {
			case metaFloat:
				slot = p.f
			case denseVals, pairDense:
				if len(*p.vals) > 0 {
					slot = &(*p.vals)[0]
				}
			case triVals:
				if len(*p.rows) > 0 {
					slot = &(*p.rows)[0][0]
				}
			case bbmCounts:
				slot = &p.bbm.clicks[0]
			}
			if slot == nil {
				continue
			}
			bad := []float64{-1, math.Inf(1), math.NaN()}
			if p.unit {
				bad = []float64{-0.5, 7, math.NaN()}
			}
			was := *slot
			for _, v := range bad {
				*slot = v
				refused(fmt.Sprintf("%s parameter %d (%q) at %v", name, i, p.tag, v), m)
			}
			*slot = was
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

// TestV2MappedLoadsUntaggedArtifact is the compatibility pin for
// artifacts an earlier build wrote, which carry probe tables beside the
// terms and pairs: q.tabl and d.tabl, with or without the tags that came
// later (q.tags, d.tags), and p.tabl. No load reads those tables, so
// such an artifact loads whatever they hold — here, buckets no probe
// could use — scores bit for bit what the artifact without them scores,
// known pairs and prior fallbacks alike, and exports to it byte for
// byte.
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
		for _, s := range orig.Sections {
			if strings.HasSuffix(s.Tag, ".tabl") || strings.HasSuffix(s.Tag, ".tags") {
				t.Fatalf("%s: the export carries %q", name, s.Tag)
			}
		}
		lean, err := FromArtifact(orig)
		if err != nil {
			t.Fatal(err)
		}
		for _, tagged := range []bool{false, true} {
			b, err := rebuildV2(orig, func(tag string, w *snapshot.V2Writer, a *snapshot.V2Artifact) bool {
				prefix, ok := map[string]string{"q.offs": "q", "d.offs": "d", "p.d": "p"}[tag]
				if !ok {
					return false
				}
				if tag == "p.d" {
					v, _ := a.Int32sView(tag)
					w.Int32s(tag, v)
				} else {
					v, _ := a.Uint32sView(tag)
					w.Uint32s(tag, v)
				}
				w.Int32s(prefix+".tabl", []int32{1 << 20, -7, 3})
				if tagged && prefix != "p" {
					w.Bytes(prefix+".tags", []byte{0, 1, 2})
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			a, err := snapshot.ParseV2(b)
			if err != nil {
				t.Fatal(err)
			}
			old, err := FromArtifact(a)
			if err != nil {
				t.Fatalf("%s tagged=%v: the artifact with tables: %v", name, tagged, err)
			}
			for i, s := range eval {
				want, got := lean.ClickProbsInto(s, nil), old.ClickProbsInto(s, nil)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%s tagged=%v session %d pos %d: %v, without the tables %v", name, tagged, i, j, got[j], want[j])
					}
				}
			}
			var out bytes.Buffer
			if err := old.Save(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), buf.Bytes()) {
				t.Errorf("%s tagged=%v: the export is not the artifact without the tables", name, tagged)
			}
		}
	}
}
