package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/textproc"
)

func snapModel(att Attention) *Model {
	m := NewModel(att)
	m.Relevance["find cheap"] = 0.85
	m.Relevance["flights"] = 0.6
	m.Relevance["terms apply"] = 0.2
	m.DefaultRelevance = 0.45
	return m
}

var snapLines = []string{"Acme Air", "Find cheap flights to Rome", "Terms apply"}

// sameCompiled reports where got, a model loaded from want's artifact,
// differs from want: in its vocabulary (terms and relevance bits), its
// default relevance or its ScoreSnippet answers by bits at every order.
func sameCompiled(got, want *CompiledModel) error {
	if g, w := VocabRel(got), VocabRel(want); !maps.Equal(g, w) {
		return fmt.Errorf("vocabulary %v, want %v", g, w)
	}
	if math.Float64bits(got.defRel) != math.Float64bits(want.defRel) {
		return fmt.Errorf("default relevance %v, want %v", got.defRel, want.defRel)
	}
	var sc textproc.Scratch
	for maxN := 1; maxN <= 3; maxN++ {
		gc, gs := got.ScoreSnippet(snapLines, maxN, &sc)
		wc, ws := want.ScoreSnippet(snapLines, maxN, &sc)
		if math.Float64bits(gc) != math.Float64bits(wc) || math.Float64bits(gs) != math.Float64bits(ws) {
			return fmt.Errorf("maxN %d scores (%v, %v), want (%v, %v)", maxN, gc, gs, wc, ws)
		}
	}
	return nil
}

func TestMicroSnapshotRoundTrip(t *testing.T) {
	attentions := map[string]Attention{
		"nil":       nil,
		"full":      FullAttention{},
		"geometric": GeometricAttention{LineWeights: []float64{0.9, 0.6, 0.3}, Decay: 0.8},
		"table":     TableAttention{W: [][]float64{{0.9, 0.7}, {0.5}}, Default: 0.1},
	}
	for name, att := range attentions {
		t.Run(name, func(t *testing.T) {
			m := snapModel(att)
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := LoadCompiled(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCompiled(got, m.Compile()); err != nil {
				t.Error(err)
			}
			if got.NumParams() != m.NumParams() {
				t.Errorf("NumParams %d, want %d", got.NumParams(), m.NumParams())
			}
		})
	}
}

type customAttention struct{}

func (customAttention) Examine(line, pos int) float64 { return 0.5 }

func TestMicroSnapshotCustomAttention(t *testing.T) {
	m := snapModel(customAttention{})
	if err := m.Save(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "customAttention") {
		t.Fatalf("custom attention saved cleanly: %v", err)
	}
}

// TestMicroSnapshotRejectsDamage truncates an artifact at every byte
// and flips every byte: no truncation loads, and a flip is detected or
// harmless — a flip nothing catches lies in bytes no reader looks at
// (padding between sections, the reserved header field), so what loads
// scores exactly what the original does.
func TestMicroSnapshotRejectsDamage(t *testing.T) {
	m := snapModel(GeometricAttention{LineWeights: []float64{0.9}, Decay: 0.7})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := LoadCompiled(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d loaded cleanly", cut, len(raw))
		}
	}
	want := m.Compile()
	for i := range raw {
		bad := bytes.Clone(raw)
		bad[i] ^= 0x5A
		got, err := LoadCompiled(bad)
		if err != nil {
			continue
		}
		if err := sameCompiled(got, want); err != nil {
			t.Fatalf("flipped byte %d/%d loaded: %v", i, len(raw), err)
		}
	}
}

// TestMicroSaveIsDeterministic: a model's artifact does not depend on
// the order its relevance map was filled in. Compile numbers terms in
// map order; Save numbers them in sorted order.
func TestMicroSaveIsDeterministic(t *testing.T) {
	terms := make([]string, 100)
	for i := range terms {
		terms[i] = fmt.Sprintf("term %02d", i)
	}
	fill := func(order []string) []byte {
		m := NewModel(GeometricAttention{LineWeights: []float64{0.9, 0.5}, Decay: 0.8})
		for _, t := range order {
			m.Relevance[t] = 0.1 + float64(t[len(t)-1]-'0')/20
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := fill(terms)
	for seed := int64(1); seed <= 3; seed++ {
		shuffled := slices.Clone(terms)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if !bytes.Equal(fill(shuffled), want) {
			t.Fatalf("insertion order %d saved different bytes", seed)
		}
	}
}
