package textproc

import (
	"fmt"
	"testing"
)

// TestFrozenVocabParity freezes a vocabulary and checks every lookup
// surface agrees with the mutable original, including misses.
func TestFrozenVocabParity(t *testing.T) {
	v := NewTermVocab(0)
	terms := []string{"cheap", "flights", "cheap flights", "find cheap flights", "20% off", "x"}
	for _, s := range terms {
		v.Add(s)
	}
	f := FreezeVocab(v)
	if f.Len() != v.Len() {
		t.Fatalf("frozen Len = %d, want %d", f.Len(), v.Len())
	}
	for _, s := range terms {
		want, _ := v.Lookup(s)
		got, ok := f.Lookup(s)
		if !ok || got != want {
			t.Errorf("frozen Lookup(%q) = (%d, %v), want (%d, true)", s, got, ok, want)
		}
		if f.Text(got) != s {
			t.Errorf("frozen Text(%d) = %q, want %q", got, f.Text(got), s)
		}
		if string(f.AppendText(nil, got)) != s {
			t.Errorf("frozen AppendText(%d) = %q, want %q", got, f.AppendText(nil, got), s)
		}
	}
	for _, s := range []string{"", "nope", "cheap flight", "find cheap"} {
		if id, ok := f.Lookup(s); ok {
			t.Errorf("frozen Lookup(%q) = (%d, true), want miss", s, id)
		}
	}
}

// TestFrozenVocabHashedWindows drives the hashed-window hot path the
// compiled scorer uses, via a real tokenisation scratch.
func TestFrozenVocabHashedWindows(t *testing.T) {
	v := NewTermVocab(0)
	for _, s := range []string{"find", "cheap", "find cheap", "cheap flights", "find cheap flights"} {
		v.Add(s)
	}
	f := FreezeVocab(v)

	var sc Scratch
	spans := sc.Tokenize("Find CHEAP flights!")
	if len(spans) != 3 {
		t.Fatalf("tokenize produced %d spans, want 3", len(spans))
	}
	for i := range spans {
		h := NGramHashSeed
		for n := 1; i+n <= len(spans); n++ {
			sp := spans[i+n-1]
			h = ExtendNGramHash(h, sp.Hash)
			window := sc.Norm[spans[i].Start:sp.End]
			wantID, wantOK := v.LookupHashed(h, window)
			gotID, gotOK := f.LookupHashed(h, window)
			if gotOK != wantOK || (wantOK && gotID != wantID) {
				t.Errorf("window %q: frozen = (%d, %v), mutable = (%d, %v)", window, gotID, gotOK, wantID, wantOK)
			}
		}
	}
}

// TestFrozenVocabRoundTrip rebuilds a frozen vocab from its exported
// sections (the artifact load path) and re-verifies lookups.
func TestFrozenVocabRoundTrip(t *testing.T) {
	v := NewTermVocab(0)
	var terms []string
	for i := 0; i < 500; i++ {
		terms = append(terms, fmt.Sprintf("term %d tail", i))
	}
	for _, s := range terms {
		v.Add(s)
	}
	f := FreezeVocab(v)

	re, err := NewFrozenVocab(f.Blob(), f.Offsets(), f.Table())
	if err != nil {
		t.Fatalf("NewFrozenVocab: %v", err)
	}
	for _, s := range terms {
		want, _ := v.Lookup(s)
		got, ok := re.Lookup(s)
		if !ok || got != want {
			t.Fatalf("rebuilt Lookup(%q) = (%d, %v), want (%d, true)", s, got, ok, want)
		}
	}
}

// TestNewFrozenVocabRejects exercises the O(1) structural validation
// the constructor keeps — endpoint and sizing invariants only, so
// mapped loads stay O(1) in artifact size.
func TestNewFrozenVocabRejects(t *testing.T) {
	v := NewTermVocab(0)
	v.Add("a")
	v.Add("b")
	f := FreezeVocab(v)

	cases := []struct {
		name string
		blob []byte
		offs []uint32
		tab  []int32
	}{
		{"empty offsets", f.Blob(), nil, f.Table()},
		{"blob mismatch", f.Blob()[:1], f.Offsets(), f.Table()},
		{"bad last offset", f.Blob(), []uint32{0, 2, 1}, f.Table()},
		{"non power of two table", f.Blob(), f.Offsets(), make([]int32, 17)},
		{"tiny table", f.Blob(), f.Offsets(), make([]int32, 8)},
		{"overfull table", f.Blob(), f.Offsets(), make([]int32, 16)}, // ids all 0 but only validates range; use bad id below
	}
	for _, c := range cases {
		if c.name == "overfull table" {
			// 16 buckets can hold 2 terms; make it genuinely overfull: 4 terms, 4 buckets is
			// caught by the min-size check, so instead shrink against a bigger vocab.
			big := NewTermVocab(0)
			for i := 0; i < 20; i++ {
				big.Add(fmt.Sprintf("t%d", i))
			}
			bf := FreezeVocab(big)
			if _, err := NewFrozenVocab(bf.Blob(), bf.Offsets(), make([]int32, 16)); err == nil {
				t.Errorf("%s: NewFrozenVocab accepted invalid sections", c.name)
			}
			continue
		}
		if _, err := NewFrozenVocab(c.blob, c.offs, c.tab); err == nil {
			t.Errorf("%s: NewFrozenVocab accepted invalid sections", c.name)
		}
	}
}

// TestFrozenVocabDeferredValidation pins the trust split: per-element
// corruption (decreasing offsets, out-of-range bucket IDs) is NOT
// caught by the O(1) constructor — lookups must degrade to misses
// without panicking, and Validate, which verified loads run before
// install, must reject it.
func TestFrozenVocabDeferredValidation(t *testing.T) {
	v := NewTermVocab(0)
	v.Add("a")
	v.Add("b")
	f := FreezeVocab(v)

	badTab := append(append([]int32{}, f.Table()[:len(f.Table())-1]...), 99)
	fv, err := NewFrozenVocab(f.Blob(), f.Offsets(), badTab)
	if err != nil {
		t.Fatalf("O(1) constructor rejected deferred-validation corruption: %v", err)
	}
	for _, s := range []string{"a", "b", "zz"} {
		if _, ok := fv.Lookup(s); ok && s == "zz" {
			t.Errorf("corrupt table resolved %q", s)
		}
	}
	if err := fv.Validate(); err == nil {
		t.Error("Validate accepted an out-of-range bucket id")
	}

	// Decreasing interior offsets with valid endpoints: same contract.
	// Every bucket holds term 1, whose span [2,1) is inverted — probes
	// must fail soft on the lo > hi guard instead of slicing backwards.
	invTab := make([]int32, 16)
	for i := range invTab {
		invTab[i] = 1
	}
	fv, err = NewFrozenVocab(f.Blob(), []uint32{0, 2, 1, 2}, invTab)
	if err != nil {
		t.Fatalf("O(1) constructor rejected decreasing interior offsets: %v", err)
	}
	if _, ok := fv.Lookup("ab"); ok {
		t.Error("inverted-span term resolved a lookup")
	}
	if err := fv.Validate(); err == nil {
		t.Error("Validate accepted decreasing offsets")
	}
}

// TestFrozenVocabFullTableTerminates is the hostile-artifact
// regression: a probe table that passes the O(1) constructor but has
// no empty bucket — every bucket a valid ID — gave the probe loops
// nothing to stop at, so a lookup of an absent term never returned.
// Both loops must miss after one pass over the table. Validate cannot
// catch this table (every ID is in range), so the bound is the only
// defence on trusted and verified loads alike.
func TestFrozenVocabFullTableTerminates(t *testing.T) {
	fv, err := NewFrozenVocab([]byte("aa"), []uint32{0, 2}, make([]int32, 16)) // 16 × term 0
	if err != nil {
		t.Fatalf("O(1) constructor rejected a full table: %v", err)
	}
	if id, ok := fv.Lookup("zz"); ok {
		t.Errorf("Lookup of an absent term resolved to %d", id)
	}
	if id, ok := fv.LookupHashed(HashString("zz"), []byte("zz")); ok {
		t.Errorf("LookupHashed of an absent term resolved to %d", id)
	}
	// The term the buckets do name is still found, from any start.
	if id, ok := fv.Lookup("aa"); !ok || id != 0 {
		t.Errorf("Lookup(aa) = %d, %v; want 0, true", id, ok)
	}
}
