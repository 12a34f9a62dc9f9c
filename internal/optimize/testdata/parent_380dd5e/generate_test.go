package optimize

// Generator of internal/optimize/testdata/parent_380dd5e/golden.json.
// It is not part of any build: to regenerate, check out commit 380dd5e
// — the last one whose Generate matched phrases over strings.Fields of
// the normalised line — copy this file into internal/optimize as
// zz_fixture_test.go and run
//
//	FIXTURE_DIR=/abs/path go test ./internal/optimize -run TestWriteGenerateParentFixture
//
// golden.json holds seeded random base creatives (1–3 lines of mixed
// case, digits, "$%", apostrophes, non-ASCII letters, control bytes and
// punctuation runs, some lines over the token budget) crossed with
// seeded random inventories (phrases cut from the base, respelt, drawn
// from the word pool, or with no tokens at all), and every candidate
// Generate returned for each, in order: its lines and its edit.

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snippet"
)

type generateGoldenCandidate struct {
	Lines []string `json:"lines"`
	Edit  Edit     `json:"edit"`
}

type generateGoldenCase struct {
	Base       []string                  `json:"base"`
	Inventory  []string                  `json:"inventory"`
	Candidates []generateGoldenCandidate `json:"candidates"`
}

type generateParentGolden struct {
	Commit string               `json:"commit"`
	Cases  []generateGoldenCase `json:"cases"`
}

var goldenWords = []string{
	"Cheap", "flights", "to", "Rome", "book", "TODAY", "20%", "off", "$99",
	"Don't", "dont", "wait", "great", "rates", "Ünïted", "café", "CAFÉ",
	"İstanbul", "straße", "terms", "apply", "learn", "more", "new", "deals",
	"a", "it's", "Its", "x1", "ΔΣ",
}

var goldenSeps = []string{" ", " ", " ", "  ", ", ", "! ", "\t", " - ", "\x01", " '' ", "/"}

func goldenLine(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(goldenSeps[rng.Intn(len(goldenSeps))])
		}
		b.WriteString(goldenWords[rng.Intn(len(goldenWords))])
	}
	if rng.Intn(4) == 0 {
		b.WriteString("!")
	}
	return b.String()
}

// goldenPhrase is an inventory entry: a run of a base line's words,
// respelt at random, a pool draw, or no tokens at all.
func goldenPhrase(rng *rand.Rand, base []string) string {
	switch k := rng.Intn(10); {
	case k < 5:
		words := strings.Fields(base[rng.Intn(len(base))])
		if len(words) == 0 {
			return "!!"
		}
		i := rng.Intn(len(words))
		j := min(len(words), i+1+rng.Intn(3))
		p := strings.Join(words[i:j], " ")
		if rng.Intn(3) == 0 {
			p = strings.ToUpper(p)
		}
		return p
	case k < 9:
		return goldenLine(rng, 1+rng.Intn(3))
	default:
		return []string{"", "!!!", " - ", "''"}[rng.Intn(4)]
	}
}

func TestWriteGenerateParentFixture(t *testing.T) {
	dir := os.Getenv("FIXTURE_DIR")
	if dir == "" {
		t.Skip("FIXTURE_DIR not set")
	}
	rng := rand.New(rand.NewSource(380))
	g := generateParentGolden{Commit: "380dd5e"}
	for c := 0; c < 120; c++ {
		base := make([]string, 1+rng.Intn(3))
		for i := range base {
			base[i] = goldenLine(rng, 1+rng.Intn(13))
		}
		inv := make([]string, rng.Intn(6))
		for i := range inv {
			inv[i] = goldenPhrase(rng, base)
		}
		gc := generateGoldenCase{Base: base, Inventory: inv, Candidates: []generateGoldenCandidate{}}
		for _, cand := range Generate(snippet.MustNew("base", base...), inv) {
			gc.Candidates = append(gc.Candidates, generateGoldenCandidate{Lines: cand.Creative.Lines, Edit: cand.Edit})
		}
		g.Cases = append(g.Cases, gc)
	}
	out, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "golden.json"), append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
