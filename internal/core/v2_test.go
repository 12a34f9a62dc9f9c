package core_test

import (
	"bytes"
	"maps"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/textproc"
)

func v2RoundTrip(t *testing.T, c *core.CompiledModel) *core.CompiledModel {
	t.Helper()
	var buf bytes.Buffer
	if err := c.SaveV2(&buf); err != nil {
		t.Fatalf("SaveV2: %v", err)
	}
	a, err := snapshot.ParseV2(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseV2: %v", err)
	}
	if err := a.VerifySections(); err != nil {
		t.Fatalf("VerifySections: %v", err)
	}
	mapped, err := core.CompiledFromArtifact(a)
	if err != nil {
		t.Fatalf("CompiledFromArtifact: %v", err)
	}
	return mapped
}

// TestV2CompiledParity is the zero-parse parity property test: across
// randomised models, snippets and every shipped attention family, a
// compiled model round-tripped through a v2 artifact scores identically
// (1e-12, in practice bit-exact — the artifact stores the compiled
// float memory verbatim).
func TestV2CompiledParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc, sc2 textproc.Scratch
	for trial := 0; trial < 60; trial++ {
		for _, att := range parityAttentions(rng) {
			m := randomModel(rng, att)
			cm := m.Compile()
			mapped := v2RoundTrip(t, cm)
			if mapped.Source() != nil {
				t.Fatal("mapped model claims a fitting source")
			}
			if mapped.NumParams() != cm.NumParams() {
				t.Fatalf("NumParams = %d, want %d", mapped.NumParams(), cm.NumParams())
			}
			for i := 0; i < 4; i++ {
				lines := randomLines(rng, 4, 8)
				maxN := 1 + rng.Intn(3)
				wantCTR, wantScore := cm.ScoreSnippet(lines, maxN, &sc)
				gotCTR, gotScore := mapped.ScoreSnippet(lines, maxN, &sc2)
				if math.Abs(gotCTR-wantCTR) > 1e-12 || math.Abs(gotScore-wantScore) > 1e-12 {
					t.Fatalf("trial %d att %T: mapped (%v, %v) vs compiled (%v, %v)\nlines: %q",
						trial, att, gotCTR, gotScore, wantCTR, wantScore, lines)
				}
			}
		}
	}
}

// TestV2ParityVsV1Path pins the two ways a fitted model reaches an
// artifact against each other: Model.Save (terms numbered in sorted
// order) loaded through CompiledFromArtifact and ValidateTables, and the
// map-ordered Compile written by SaveV2 and mapped back. Both hold the
// same vocabulary and answer alike by bits.
func TestV2ParityVsV1Path(t *testing.T) {
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9, 0.6, 0.3}, Decay: 0.8})
	m.Relevance["find cheap"] = 0.85
	m.Relevance["flights"] = 0.6
	m.Relevance["cheap flights"] = 0.9
	m.Relevance["book"] = 0.4
	m.DefaultRelevance = 0.3

	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	c1, err := core.LoadCompiled(saved.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	mapped := v2RoundTrip(t, m.Compile())
	if a, b := core.VocabRel(c1), core.VocabRel(mapped); !maps.Equal(a, b) {
		t.Fatalf("vocabularies differ: %v vs %v", a, b)
	}

	var sc1, sc2 textproc.Scratch
	lines := []string{"Find CHEAP flights now!", "book early, save 20%"}
	for maxN := 1; maxN <= 3; maxN++ {
		aCTR, aScore := c1.ScoreSnippet(lines, maxN, &sc1)
		bCTR, bScore := mapped.ScoreSnippet(lines, maxN, &sc2)
		if math.Float64bits(aCTR) != math.Float64bits(bCTR) || math.Float64bits(aScore) != math.Float64bits(bScore) {
			t.Fatalf("maxN %d: Save path (%v, %v) vs SaveV2 path (%v, %v)", maxN, aCTR, aScore, bCTR, bScore)
		}
	}
}

func TestV2ZeroAllocMapped(t *testing.T) {
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9, 0.6, 0.3}, Decay: 0.8})
	m.Relevance["cheap flights"] = 0.9
	m.Relevance["flights"] = 0.6
	mapped := v2RoundTrip(t, m.Compile())
	var sc textproc.Scratch
	lines := []string{"find cheap flights today", "compare and save"}
	mapped.ScoreSnippet(lines, 3, &sc) // warm the scratch
	allocs := testing.AllocsPerRun(200, func() {
		mapped.ScoreSnippet(lines, 3, &sc)
	})
	if allocs != 0 {
		t.Fatalf("mapped ScoreSnippet allocates %v/op, want 0", allocs)
	}
}

func TestCompiledFromArtifactRejects(t *testing.T) {
	m := core.NewModel(core.FullAttention{})
	m.Relevance["a"] = 0.5
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Wrong model name.
	w := snapshot.NewV2Writer("pbm")
	w.Bytes("meta", []byte{})
	var other bytes.Buffer
	if _, err := w.WriteTo(&other); err != nil {
		t.Fatal(err)
	}
	if a, err := snapshot.ParseV2(other.Bytes()); err != nil {
		t.Fatal(err)
	} else if _, err := core.CompiledFromArtifact(a); err == nil {
		t.Error("accepted an artifact for a different model")
	}

	// Drop each section in turn: the loader must fail closed, not
	// serve partial tables. v.tags is the one section whose absence is
	// not an error: an artifact without it predates the tags.
	for _, drop := range []string{"meta", "v.blob", "v.offs", "v.tabl", "v.tags", "rel", "logrel"} {
		_, err := core.CompiledFromArtifact(withoutSection(t, good, drop))
		if drop == "v.tags" {
			if err != nil {
				t.Errorf("rejected an artifact without %q: %v", drop, err)
			}
		} else if err == nil {
			t.Errorf("accepted an artifact missing section %q", drop)
		}
	}
}

// withoutSection re-emits a v2 artifact with one section left out.
func withoutSection(t *testing.T, art []byte, drop string) *snapshot.V2Artifact {
	t.Helper()
	orig, err := snapshot.ParseV2(art)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := orig.Section(drop); !ok {
		t.Fatalf("artifact has no section %q to drop", drop)
	}
	w := snapshot.NewV2Writer(orig.ModelName)
	for _, s := range orig.Sections {
		if s.Tag == drop {
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
		t.Fatal(err)
	}
	a, err := snapshot.ParseV2(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestV2UntaggedArtifactScoresIdentically is the compatibility pin: an
// artifact written before the vocabulary carried tags (no v.tags
// section) loads — the tags are derived — and scores bit for bit what
// the tagged artifact scores, hits and misses alike.
func TestV2UntaggedArtifactScoresIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var sc, sc2 textproc.Scratch
	for trial := 0; trial < 20; trial++ {
		for _, att := range parityAttentions(rng) {
			var buf bytes.Buffer
			if err := randomModel(rng, att).Save(&buf); err != nil {
				t.Fatal(err)
			}
			tagged, err := snapshot.ParseV2(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.CompiledFromArtifact(tagged)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.CompiledFromArtifact(withoutSection(t, buf.Bytes(), "v.tags"))
			if err != nil {
				t.Fatalf("untagged artifact: %v", err)
			}
			if err := got.ValidateTables(); err != nil {
				t.Fatalf("untagged artifact fails deep validation: %v", err)
			}
			for i := 0; i < 4; i++ {
				lines := randomLines(rng, 4, 8)
				maxN := 1 + rng.Intn(3)
				wantCTR, wantScore := want.ScoreSnippet(lines, maxN, &sc)
				gotCTR, gotScore := got.ScoreSnippet(lines, maxN, &sc2)
				if gotCTR != wantCTR || gotScore != wantScore {
					t.Fatalf("trial %d att %T: untagged (%v, %v) vs tagged (%v, %v)\nlines: %q",
						trial, att, gotCTR, gotScore, wantCTR, wantScore, lines)
				}
			}
		}
	}
}

// TestValidateTablesRejectsFlippedTag: the trusted load maps the tags
// unread, so a tag that no longer agrees with its bucket gets through
// CompiledFromArtifact and can only cost misses; the verified load's
// deep pass must refuse it.
func TestValidateTablesRejectsFlippedTag(t *testing.T) {
	m := core.NewModel(core.FullAttention{})
	for _, term := range []string{"a", "b", "c d", "e"} {
		m.Relevance[term] = 0.5
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.ParseV2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tags, err := a.BytesView("v.tags")
	if err != nil {
		t.Fatal(err)
	}
	// An empty bucket past the mirrored head gains a tag: no lookup
	// changes its answer, and only the deep pass can tell.
	flipped := false
	for i := 8; i < len(tags)-8 && !flipped; i++ {
		if tags[i] == 0 {
			tags[i], flipped = 0x81, true
		}
	}
	if !flipped {
		t.Fatal("no empty bucket to corrupt")
	}
	c, err := core.CompiledFromArtifact(a)
	if err != nil {
		t.Fatalf("trusted load reads no tag but term 0's, yet: %v", err)
	}
	if err := c.ValidateTables(); err == nil {
		t.Error("ValidateTables accepted a tag over an empty bucket")
	}
}
