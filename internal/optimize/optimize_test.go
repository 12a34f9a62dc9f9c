package optimize

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snippet"
	"repro/internal/textproc"
)

func inventory() []string {
	return []string{"20% off", "learn more", "terms apply", "great rates"}
}

// generateCase pins part of the edit space for one base creative: its
// want candidates must be generated (with exact lines) and its absent
// edits must not be.
type generateCase struct {
	base      []string
	inventory []string
	want      []Candidate
	exact     bool // want lists every candidate, in order
	absent    []Edit
}

// checkGenerate runs Generate on tc's base and checks tc's wants and
// absences, plus the invariants every output must hold: each candidate
// differs from the base and from every other candidate, and no line is
// empty or over the token budget.
func checkGenerate(t *testing.T, tc generateCase) {
	t.Helper()
	base := snippet.MustNew("base", tc.base...)
	got := Generate(base, tc.inventory)
	if tc.exact && len(got) != len(tc.want) {
		t.Errorf("%d candidates, want %d: %+v", len(got), len(tc.want), got)
	}
	for i, w := range tc.want {
		found := false
		for j, c := range got {
			if c.Edit == w.Edit && strings.Join(c.Creative.Lines, "|") == strings.Join(w.Creative.Lines, "|") {
				found = !tc.exact || i == j
			}
		}
		if !found {
			t.Errorf("missing %+v", w)
		}
	}
	for _, c := range got {
		for _, e := range tc.absent {
			if c.Edit == e {
				t.Errorf("unwanted edit %+v", e)
			}
		}
	}
	seen := make(map[string]Edit, len(got))
	for _, c := range got {
		if c.Creative.Equal(base) {
			t.Errorf("%+v yields the base", c.Edit)
		}
		for _, line := range c.Creative.Lines {
			if n := len(strings.Fields(textproc.Normalize(line))); n == 0 || n > maxTokensPerLine {
				t.Errorf("%+v leaves a line of %d tokens", c.Edit, n)
			}
		}
		key := c.Creative.Text()
		if prev, dup := seen[key]; dup {
			t.Errorf("%+v repeats the variant of %+v", c.Edit, prev)
		}
		seen[key] = c.Edit
	}
}

// Phrases with no tokens and a second spelling of a normal form add
// nothing: the one real variant inserts the phrase where the base lacks
// it, spelled as the inventory first gave it. Dropping line 2's only
// phrase would empty it.
func TestGenerate(t *testing.T) {
	checkGenerate(t, generateCase{
		base:      []string{"cheap flights to rome", "book today"},
		inventory: []string{"!!!", "", "book today", "Book Today"},
		want: []Candidate{{
			Creative: snippet.Creative{Lines: []string{"book today cheap flights to rome", "book today"}},
			Edit:     Edit{Kind: "insert", Line: 1, New: "book today"},
		}},
		exact: true,
	})
}

// A weak hook is replaced by, or fronted with, the strongest phrase.
func TestProposeUpgradesWeakHook(t *testing.T) {
	checkGenerate(t, generateCase{
		base:      []string{"acme store learn more", "running shoes", "great rates"},
		inventory: inventory(),
		want: []Candidate{{
			Creative: snippet.Creative{Lines: []string{"acme store 20% off", "running shoes", "great rates"}},
			Edit:     Edit{Kind: "replace", Line: 1, Old: "learn more", New: "20% off"},
		}, {
			Creative: snippet.Creative{Lines: []string{"20% off acme store learn more", "running shoes", "great rates"}},
			Edit:     Edit{Kind: "insert", Line: 1, New: "20% off"},
		}},
	})
}

func TestProposeDropsSmallPrint(t *testing.T) {
	checkGenerate(t, generateCase{
		base:      []string{"acme store 20% off", "running shoes terms apply", "great rates"},
		inventory: inventory(),
		want: []Candidate{{
			Creative: snippet.Creative{Lines: []string{"acme store 20% off", "running shoes", "great rates"}},
			Edit:     Edit{Kind: "replace", Line: 2, Old: "terms apply"},
		}},
		// A line that is only the phrase keeps it.
		absent: []Edit{{Kind: "replace", Line: 3, Old: "great rates"}},
	})
}

func TestProposeMovesPhraseForward(t *testing.T) {
	checkGenerate(t, generateCase{
		base:      []string{"acme store brand words 20% off", "running shoes", "great rates"},
		inventory: inventory(),
		want: []Candidate{{
			Creative: snippet.Creative{Lines: []string{"20% off acme store brand words", "running shoes", "great rates"}},
			Edit:     Edit{Kind: "move", Line: 1, Old: "20% off", New: "20% off"},
		}},
		// Already at the front: no move, and no second copy inserted.
		absent: []Edit{
			{Kind: "move", Line: 3, Old: "great rates", New: "great rates"},
			{Kind: "insert", Line: 1, New: "20% off"},
		},
	})
}

// A base that already fronts the only inventory phrase gets no edit
// that inserts it again or moves it.
func TestHillClimbStopsAtOptimum(t *testing.T) {
	checkGenerate(t, generateCase{
		base:      []string{"20% off", "shoes", "rates"},
		inventory: []string{"20% off"},
		absent: []Edit{
			{Kind: "insert", Line: 1, New: "20% off"},
			{Kind: "move", Line: 1, Old: "20% off", New: "20% off"},
		},
	})
}

func TestProposeRespectsLineBudget(t *testing.T) {
	checkGenerate(t, generateCase{
		base:      []string{"one two three four five six seven eight nine ten eleven", "shoes", "rates"},
		inventory: []string{"20% off"},
		want: []Candidate{{
			Creative: snippet.Creative{Lines: []string{"one two three four five six seven eight nine ten eleven", "20% off shoes", "rates"}},
			Edit:     Edit{Kind: "insert", Line: 2, New: "20% off"},
		}},
		absent: []Edit{{Kind: "insert", Line: 1, New: "20% off"}},
	})
}

func TestContainsPhrase(t *testing.T) {
	pos, ok := containsPhrase("Find cheap flights to Rome", "cheap flights")
	if !ok || pos != 2 {
		t.Errorf("containsPhrase = %d,%v want 2,true", pos, ok)
	}
	if _, ok := containsPhrase("Find cheap flights", "rome"); ok {
		t.Error("absent phrase reported present")
	}
	if _, ok := containsPhrase("short", "much longer phrase"); ok {
		t.Error("overlong phrase reported present")
	}
}

func TestReplaceInLine(t *testing.T) {
	out, ok := replaceInLine("find cheap flights today", "cheap flights", "great deals")
	if !ok || out != "find great deals today" {
		t.Errorf("replaceInLine = %q,%v", out, ok)
	}
	out, ok = replaceInLine("find cheap flights", "cheap flights", "")
	if !ok || out != "find" {
		t.Errorf("drop = %q,%v", out, ok)
	}
	if _, ok := replaceInLine("plain line", "absent", "x"); ok {
		t.Error("replacement of absent phrase succeeded")
	}
}

// generateGolden is testdata/parent_380dd5e/golden.json: seeded random
// bases crossed with seeded random inventories, and every candidate the
// parent's Generate returned for each, in order. Its generator is beside
// it.
type generateGolden struct {
	Commit string `json:"commit"`
	Cases  []struct {
		Base       []string `json:"base"`
		Inventory  []string `json:"inventory"`
		Candidates []struct {
			Lines []string `json:"lines"`
			Edit  Edit     `json:"edit"`
		} `json:"candidates"`
	} `json:"cases"`
}

// TestGenerateMatchesParentGolden pins Generate to the last commit that
// matched phrases over strings.Fields of the normalised line: the same
// candidates, lines and edits, in the same order.
func TestGenerateMatchesParentGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent_380dd5e", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g generateGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Cases) == 0 {
		t.Fatal("golden holds no cases")
	}
	for i, gc := range g.Cases {
		got := Generate(snippet.MustNew("base", gc.Base...), gc.Inventory)
		if len(got) != len(gc.Candidates) {
			t.Errorf("case %d: %d candidates, want %d", i, len(got), len(gc.Candidates))
			continue
		}
		for j, want := range gc.Candidates {
			if got[j].Edit != want.Edit || strings.Join(got[j].Creative.Lines, "\n") != strings.Join(want.Lines, "\n") {
				t.Errorf("case %d candidate %d: %+v %q, want %+v %q", i, j, got[j].Edit, got[j].Creative.Lines, want.Edit, want.Lines)
			}
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	base := snippet.MustNew("base",
		"acme store learn more",
		"running shoes terms apply",
		"great rates always")
	b.ReportAllocs()
	for b.Loop() {
		Generate(base, inventory())
	}
}
