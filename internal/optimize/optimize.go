// Package optimize implements the candidate half of the paper's second
// future-work direction, "automatic generation of snippets": Generate
// lists the single-edit variants of a creative (replace or drop a
// phrase, insert a phrase at the front of a line, move a phrase to the
// front of its line). Scoring is not done here: /v1/optimize scores
// the base and every variant in one engine.ScoreCandidates pass and
// ranks them with engine.TopK, over HTTP and MBSP alike.
//
// The edit space is deliberately conservative: edits are built from an
// explicit phrase inventory (in practice, the high-lift phrases mined
// from the rewrite database; see examples/rewritemining), so every
// suggestion is something an advertiser plausibly writes, and a
// deletion removes one inventory phrase at most, so the product-form
// objective of Eq. 3 — under which every deletion "improves" a
// snippet — cannot strip a snippet bare.
package optimize

import (
	"strings"

	"repro/internal/snippet"
	"repro/internal/textproc"
)

// maxTokensPerLine rejects edits that would overflow a line.
const maxTokensPerLine = 12

// Edit is one proposed change to a creative. The JSON tags are the
// /v1/optimize wire shape.
type Edit struct {
	// Kind is "replace", "insert" or "move".
	Kind string `json:"kind"`
	// Line is the 1-based line the edit touches.
	Line int `json:"line"`
	// Old and New are the phrase texts involved, spelled as the
	// inventory first gave them ("" where not applicable: inserts have
	// no Old, drops no New).
	Old string `json:"old,omitempty"`
	New string `json:"new,omitempty"`
}

// Candidate is one variant of the base creative and the edit that
// made it.
type Candidate struct {
	Creative snippet.Creative
	Edit     Edit
}

// phrase is one inventory entry: the spelling reported in an Edit and
// its normal form.
type phrase struct {
	text string
	norm string
}

// phrases normalises the inventory once, dropping phrases with no
// tokens and later spellings of a normal form already listed.
func phrases(inventory []string) []phrase {
	out := make([]phrase, 0, len(inventory))
	seen := make(map[string]bool, len(inventory))
	for _, text := range inventory {
		norm := textproc.Normalize(text)
		if norm == "" || seen[norm] {
			continue
		}
		seen[norm] = true
		out = append(out, phrase{text: text, norm: norm})
	}
	return out
}

// Generate enumerates the single-edit variants of base drawn from the
// inventory, in a fixed order: per line, each phrase the line contains
// is replaced by every other phrase, dropped and moved to the front;
// then each phrase the line lacks is inserted at its front. A variant
// that would empty a line or overflow the per-line token budget is
// skipped, and phrases that normalise alike count once, so every
// candidate differs from the base.
func Generate(base snippet.Creative, inventory []string) []Candidate {
	ps := phrases(inventory)
	var out []Candidate
	emit := func(li int, line string, e Edit) {
		if strings.TrimSpace(line) == "" {
			return
		}
		c := cloneWithLine(base, li, line)
		for _, l := range c.Lines {
			if len(textproc.Tokenize(l)) > maxTokensPerLine {
				return
			}
		}
		out = append(out, Candidate{Creative: c, Edit: e})
	}

	for li, line := range base.Lines {
		for i, old := range ps {
			pos, ok := containsPhrase(line, old.norm)
			if !ok {
				continue
			}
			// The line contains old, so replaceInLine cannot fail below.
			// Replacements: the phrase may be rewritten to any other
			// inventory phrase...
			for j, new := range ps {
				if j != i {
					newLine, _ := replaceInLine(line, old.norm, new.norm)
					emit(li, newLine, Edit{Kind: "replace", Line: li + 1, Old: old.text, New: new.text})
				}
			}
			stripped, _ := replaceInLine(line, old.norm, "")
			// ...or dropped entirely (e.g. removing small print).
			emit(li, stripped, Edit{Kind: "replace", Line: li + 1, Old: old.text})
			// Moves: relocate the phrase to the front of its line.
			if pos > 1 {
				emit(li, old.norm+" "+stripped, Edit{Kind: "move", Line: li + 1, Old: old.text, New: old.text})
			}
		}
		// Insertions at the front of the line.
		for _, p := range ps {
			if _, ok := containsPhrase(line, p.norm); !ok {
				emit(li, p.norm+" "+line, Edit{Kind: "insert", Line: li + 1, New: p.text})
			}
		}
	}
	return out
}

// containsPhrase reports whether the normalised line contains the phrase
// as a token subsequence, returning its token position.
func containsPhrase(line, phrase string) (pos int, ok bool) {
	toks := textproc.Tokenize(line)
	want := strings.Fields(textproc.Normalize(phrase))
	if len(want) == 0 || len(toks) < len(want) {
		return 0, false
	}
	for i := 0; i+len(want) <= len(toks); i++ {
		match := true
		for j, w := range want {
			if toks[i+j].Text != w {
				match = false
				break
			}
		}
		if match {
			return i + 1, true
		}
	}
	return 0, false
}

// replaceInLine substitutes the first occurrence of old with new in the
// normalised token stream of the line.
func replaceInLine(line, old, new string) (string, bool) {
	toks := textproc.Tokenize(line)
	oldToks := strings.Fields(textproc.Normalize(old))
	pos, ok := containsPhrase(line, old)
	if !ok {
		return "", false
	}
	var out []string
	for i := 0; i < len(toks); i++ {
		if i == pos-1 {
			if new != "" {
				out = append(out, textproc.Normalize(new))
			}
			i += len(oldToks) - 1
			continue
		}
		out = append(out, toks[i].Text)
	}
	return strings.Join(out, " "), true
}

// cloneWithLine copies the creative with line index li replaced.
func cloneWithLine(c snippet.Creative, li int, line string) snippet.Creative {
	lines := append([]string(nil), c.Lines...)
	lines[li] = strings.TrimSpace(line)
	return snippet.Creative{ID: c.ID + "+", Lines: lines}
}
