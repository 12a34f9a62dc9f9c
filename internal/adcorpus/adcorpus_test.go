package adcorpus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/textproc"
)

func TestGenerateDeterminism(t *testing.T) {
	lex := DefaultLexicon()
	a := Generate(Config{Seed: 5, Groups: 50}, lex)
	b := Generate(Config{Seed: 5, Groups: 50}, lex)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different corpora")
	}
	c := Generate(Config{Seed: 6, Groups: 50}, lex)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestGenerateShape(t *testing.T) {
	corpus := Generate(Config{Seed: 1, Groups: 200, MaxCreatives: 4}, DefaultLexicon())
	if len(corpus.Groups) != 200 {
		t.Fatalf("got %d groups, want 200", len(corpus.Groups))
	}
	for _, g := range corpus.Groups {
		if len(g.Creatives) < 2 || len(g.Creatives) > 4 {
			t.Errorf("group %s has %d creatives, want 2..4", g.ID, len(g.Creatives))
		}
		if g.Keyword == "" {
			t.Errorf("group %s has empty keyword", g.ID)
		}
		for _, c := range g.Creatives {
			if len(c.Lines) != 3 {
				t.Errorf("creative %s has %d lines, want 3", c.ID, len(c.Lines))
			}
			if len(c.Slots) == 0 {
				t.Errorf("creative %s has no slots", c.ID)
			}
		}
	}
}

func TestSlotsMatchText(t *testing.T) {
	corpus := Generate(Config{Seed: 2, Groups: 100}, DefaultLexicon())
	for _, g := range corpus.Groups {
		for _, c := range g.Creatives {
			for _, sl := range c.Slots {
				if sl.Line < 1 || sl.Line > len(c.Lines) {
					t.Fatalf("creative %s slot %q has line %d", c.ID, sl.Text, sl.Line)
				}
				toks := strings.Fields(textproc.Normalize(c.Lines[sl.Line-1]))
				want := strings.Fields(sl.Text)
				if sl.Pos-1+len(want) > len(toks) {
					t.Fatalf("creative %s slot %q at pos %d overruns line %q",
						c.ID, sl.Text, sl.Pos, c.Lines[sl.Line-1])
				}
				for i, w := range want {
					if toks[sl.Pos-1+i] != w {
						t.Fatalf("creative %s slot %q token %d: line has %q",
							c.ID, sl.Text, i, toks[sl.Pos-1+i])
					}
				}
			}
		}
	}
}

func TestSlotAppealsComeFromLexicon(t *testing.T) {
	lex := DefaultLexicon()
	appeal := lex.AppealMap()
	corpus := Generate(Config{Seed: 3, Groups: 50}, lex)
	for _, g := range corpus.Groups {
		for _, c := range g.Creatives {
			for _, sl := range c.Slots {
				want, ok := appeal[sl.Text]
				if !ok {
					t.Fatalf("slot text %q not in lexicon", sl.Text)
				}
				if sl.Appeal != want {
					t.Fatalf("slot %q appeal %v, lexicon says %v", sl.Text, sl.Appeal, want)
				}
			}
		}
	}
}

func TestGroupsContainTextVariation(t *testing.T) {
	corpus := Generate(Config{Seed: 4, Groups: 100}, DefaultLexicon())
	varied := 0
	for _, g := range corpus.Groups {
		base := g.Creatives[0].Snippet()
		for _, c := range g.Creatives[1:] {
			if !base.Equal(c.Snippet()) {
				varied++
				break
			}
		}
	}
	// The generator never emits a guaranteed-identical variant, but
	// chained variants can occasionally return to the base text; demand
	// variation in the vast majority of groups.
	if varied < 95 {
		t.Errorf("only %d/100 groups have any text variation", varied)
	}
}

// loadJSONL reads a corpus written by SaveJSONL: the reader the round
// trip holds the writer to.
func loadJSONL(r io.Reader) (*Corpus, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	corpus := &Corpus{}
	for {
		var g Group
		if err := dec.Decode(&g); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("adcorpus: load group %d: %w", len(corpus.Groups), err)
		}
		corpus.Groups = append(corpus.Groups, g)
	}
	return corpus, nil
}

func TestJSONLRoundTrip(t *testing.T) {
	corpus := Generate(Config{Seed: 7, Groups: 20}, DefaultLexicon())
	var buf bytes.Buffer
	if err := corpus.SaveJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := loadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(corpus, got) {
		t.Error("JSONL round trip changed the corpus")
	}
}

func TestLoadJSONLGarbage(t *testing.T) {
	if _, err := loadJSONL(bytes.NewBufferString("{broken")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLoadJSONLEmpty(t *testing.T) {
	got, err := loadJSONL(bytes.NewBufferString(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != 0 {
		t.Errorf("empty input produced %d groups", len(got.Groups))
	}
}

func TestAppealMap(t *testing.T) {
	lex := DefaultLexicon()
	m := lex.AppealMap()
	if m["20% off"] != 1.20 {
		t.Errorf(`appeal["20%% off"] = %v, want 1.20`, m["20% off"])
	}
	if m["terms apply"] != -0.60 {
		t.Errorf(`appeal["terms apply"] = %v, want -0.60`, m["terms apply"])
	}
	if _, ok := m[""]; ok {
		t.Error("empty phrase leaked into appeal map")
	}
}

func TestDefaultLexiconNormalised(t *testing.T) {
	lex := DefaultLexicon()
	check := func(ps []Phrase) {
		for _, p := range ps {
			if p.Text != textproc.Normalize(p.Text) {
				t.Errorf("lexicon phrase %q is not normalised", p.Text)
			}
		}
	}
	check(lex.Hooks)
	check(lex.Tails)
	check(lex.Trust)
	check(lex.BrandSuffixes)
	for _, v := range lex.Verticals {
		for _, o := range v.Objects {
			if o != textproc.Normalize(o) {
				t.Errorf("object %q is not normalised", o)
			}
		}
		for _, b := range v.Brands {
			if b != textproc.Normalize(b) {
				t.Errorf("brand %q is not normalised", b)
			}
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	lex := DefaultLexicon()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(Config{Seed: int64(i), Groups: 100}, lex)
	}
}
