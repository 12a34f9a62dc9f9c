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
	var sc textproc.Scratch
	emit := func(li int, line string, e Edit) {
		if strings.TrimSpace(line) == "" {
			return
		}
		c := cloneWithLine(base, li, line)
		for _, l := range c.Lines {
			if len(sc.Tokenize(l)) > maxTokensPerLine {
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

// A normal form is its tokens joined by single spaces, so a normalised
// phrase is a run of whole tokens of a line exactly when " "+phrase+" "
// occurs in the padded normal form of the line; padded returns that
// form and the index of the phrase's first occurrence, or -1.
func padded(line, phrase string) (norm string, at int) {
	norm = " " + textproc.Normalize(line) + " "
	return norm, strings.Index(norm, " "+phrase+" ")
}

// containsPhrase reports whether the line contains the normalised
// phrase as a run of whole tokens, returning the 1-based position of
// its first token: one plus the spaces before it.
func containsPhrase(line, phrase string) (pos int, ok bool) {
	norm, at := padded(line, phrase)
	if at < 0 {
		return 0, false
	}
	return 1 + strings.Count(norm[:at], " "), true
}

// replaceInLine substitutes the first occurrence of the normalised
// phrase old with the normalised phrase new ("" drops it) in the normal
// form of the line.
func replaceInLine(line, old, new string) (string, bool) {
	norm, at := padded(line, old)
	if at < 0 {
		return "", false
	}
	if new != "" {
		new += " "
	}
	return strings.TrimSpace(norm[:at] + " " + new + norm[at+len(old)+2:]), true
}

// cloneWithLine copies the creative with line index li replaced.
func cloneWithLine(c snippet.Creative, li int, line string) snippet.Creative {
	lines := append([]string(nil), c.Lines...)
	lines[li] = strings.TrimSpace(line)
	return snippet.Creative{ID: c.ID + "+", Lines: lines}
}
