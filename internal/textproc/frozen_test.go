package textproc

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

// oracleLookup is the plain probe the tagged one is differentially
// tested against: one bucket of the table per step, stop at the first
// empty one, byte-compare every occupied one on the way. It never reads
// the tags, so it also says what a lookup answered before they existed.
func oracleLookup(v *FrozenVocab, h uint64, key []byte) (int32, bool) {
	for i, left := h&v.mask, len(v.tab); left > 0; i, left = (i+1)&v.mask, left-1 {
		id := v.tab[i]
		if id < 0 {
			return 0, false
		}
		text, ok := v.term(id)
		if !ok {
			return 0, false
		}
		if string(text) == string(key) {
			return id, true
		}
	}
	return 0, false
}

// freezeTerms freezes distinct terms in order (so term i has ID i).
func freezeTerms(terms ...string) *FrozenVocab { return FreezeVocab(terms) }

// checkLookup asserts the three views of one probe agree: the tagged
// lookup (both entry points), the oracle, and the expected answer.
func checkLookup(t *testing.T, v *FrozenVocab, key string, wantID int32, wantOK bool) {
	t.Helper()
	h := hashString(key)
	oid, ook := oracleLookup(v, h, []byte(key))
	gid, gok := v.LookupHashed(h, []byte(key))
	sid, sok := v.Lookup(key)
	if gok != wantOK || ook != wantOK || sok != wantOK || wantOK && (gid != wantID || oid != wantID || sid != wantID) {
		t.Errorf("lookup %q: LookupHashed (%d, %v), Lookup (%d, %v), oracle (%d, %v); want (%d, %v)",
			key, gid, gok, sid, sok, oid, ook, wantID, wantOK)
	}
}

// writeVocab serialises v's sections under prefix — without the tag
// section when tagged is false, which is what an artifact written
// before tags existed looks like — and parses them back.
func writeVocab(t testing.TB, v *FrozenVocab, prefix string, tagged bool) *snapshot.V2Artifact {
	t.Helper()
	w := snapshot.NewV2Writer("vocab")
	if tagged {
		v.WriteSections(w, prefix)
	} else {
		w.Bytes(prefix+secBlob, v.blob)
		w.Uint32s(prefix+secOffs, v.offs)
		w.Int32s(prefix+secTabl, v.tab)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	a, err := snapshot.ParseV2(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseV2: %v", err)
	}
	return a
}

// TestFrozenVocabParity freezes a vocabulary and checks every lookup
// surface agrees with the builder's IDs, including misses.
func TestFrozenVocabParity(t *testing.T) {
	terms := []string{"cheap", "flights", "cheap flights", "find cheap flights", "20% off", "x"}
	f := freezeTerms(terms...)
	if f.Len() != len(terms) {
		t.Fatalf("frozen Len = %d, want %d", f.Len(), len(terms))
	}
	for i, s := range terms {
		checkLookup(t, f, s, int32(i), true)
		if f.Text(int32(i)) != s {
			t.Errorf("frozen Text(%d) = %q, want %q", i, f.Text(int32(i)), s)
		}
	}
	for _, s := range []string{"", "nope", "cheap flight", "find cheap", "flights ", " flights", "FLIGHTS"} {
		checkLookup(t, f, s, 0, false)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("Validate on a fresh freeze: %v", err)
	}
}

// TestFrozenVocabHashedWindows drives the hashed-window hot path the
// compiled scorer uses, via a real tokenisation scratch.
func TestFrozenVocabHashedWindows(t *testing.T) {
	terms := []string{"find", "cheap", "find cheap", "cheap flights", "find cheap flights"}
	f := freezeTerms(terms...)
	want := map[string]int32{}
	for i, s := range terms {
		want[s] = int32(i)
	}

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
			wantID, wantOK := want[string(window)]
			gotID, gotOK := f.LookupHashed(h, window)
			if gotOK != wantOK || (wantOK && gotID != wantID) {
				t.Errorf("window %q: frozen = (%d, %v), want (%d, %v)", window, gotID, gotOK, wantID, wantOK)
			}
			if h != hashBytes(window) {
				t.Errorf("window %q: running hash %x, hashBytes %x", window, h, hashBytes(window))
			}
		}
	}
}

// TestFrozenVocabRoundTrip rebuilds a frozen vocab from three of its
// sections (the derive constructor) and from all four through an
// artifact, tagged and untagged, and re-verifies lookups. Deriving must
// reproduce the tags the freeze wrote, byte for byte.
func TestFrozenVocabRoundTrip(t *testing.T) {
	var terms []string
	for i := 0; i < 500; i++ {
		terms = append(terms, fmt.Sprintf("term %d tail", i))
	}
	f := freezeTerms(terms...)

	derived, err := NewFrozenVocab(f.blob, f.offs, f.tab)
	if err != nil {
		t.Fatalf("NewFrozenVocab: %v", err)
	}
	if !bytes.Equal(derived.tags, f.tags) {
		t.Error("derived tags differ from the tags FreezeVocab wrote")
	}
	mapped, err := ReadSections(writeVocab(t, f, "v", true), "v")
	if err != nil {
		t.Fatalf("ReadSections: %v", err)
	}
	if !bytes.Equal(mapped.tags, f.tags) {
		t.Error("mapped tags differ from the tags FreezeVocab wrote")
	}
	old, err := ReadSections(writeVocab(t, f, "v", false), "v")
	if err != nil {
		t.Fatalf("ReadSections of an artifact without tags: %v", err)
	}
	for _, re := range []*FrozenVocab{derived, mapped, old} {
		if err := re.Validate(); err != nil {
			t.Errorf("Validate on a rebuilt vocabulary: %v", err)
		}
		for i, s := range terms {
			checkLookup(t, re, s, int32(i), true)
			checkLookup(t, re, s+"x", 0, false)
		}
	}
}

// TestNewFrozenVocabRejects exercises the O(1) structural validation
// the constructors keep — endpoint and sizing invariants only, so
// mapped loads stay O(1) in artifact size.
func TestNewFrozenVocabRejects(t *testing.T) {
	f := freezeTerms("a", "b")
	var many []string
	for i := 0; i < 20; i++ {
		many = append(many, fmt.Sprintf("t%d", i))
	}
	big := freezeTerms(many...)

	cases := []struct {
		name string
		blob []byte
		offs []uint32
		tab  []int32
	}{
		{"empty offsets", f.blob, nil, f.tab},
		{"blob mismatch", f.blob[:1], f.offs, f.tab},
		{"bad last offset", f.blob, []uint32{0, 2, 1}, f.tab},
		{"non power of two table", f.blob, f.offs, make([]int32, 17)},
		{"tiny table", f.blob, f.offs, make([]int32, 8)},
		{"overfull table", big.blob, big.offs, make([]int32, 16)}, // 20 terms need 64 buckets
	}
	for _, c := range cases {
		if _, err := NewFrozenVocab(c.blob, c.offs, c.tab); err == nil {
			t.Errorf("%s: NewFrozenVocab accepted invalid sections", c.name)
		}
		if _, err := newFrozenVocab(c.blob, c.offs, c.tab, make([]byte, len(c.tab)+tagStep)); err == nil {
			t.Errorf("%s: newFrozenVocab accepted invalid sections", c.name)
		}
	}
	for _, n := range []int{0, len(f.tab), len(f.tab) + tagStep - 1, len(f.tab) + tagStep + 1} {
		if _, err := newFrozenVocab(f.blob, f.offs, f.tab, make([]byte, n)); err == nil {
			t.Errorf("newFrozenVocab accepted %d tags for %d buckets", n, len(f.tab))
		}
	}
}

// TestFrozenVocabDeferredValidation pins the trust split: per-element
// corruption (decreasing offsets, out-of-range bucket IDs) is NOT
// caught by the O(1) constructor — lookups must degrade to misses
// without panicking, and Validate, which verified loads run before
// install, must reject it.
func TestFrozenVocabDeferredValidation(t *testing.T) {
	f := freezeTerms("a", "b")

	badTab := append(append([]int32{}, f.tab[:len(f.tab)-1]...), 99)
	fv, err := NewFrozenVocab(f.blob, f.offs, badTab)
	if err != nil {
		t.Fatalf("O(1) constructor rejected deferred-validation corruption: %v", err)
	}
	for _, s := range []string{"a", "b", "zz", ""} {
		if _, ok := fv.Lookup(s); ok && (s == "zz" || s == "") {
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
	fv, err = NewFrozenVocab(f.blob, []uint32{0, 2, 1, 2}, invTab)
	if err != nil {
		t.Fatalf("O(1) constructor rejected decreasing interior offsets: %v", err)
	}
	for _, s := range []string{"ab", ""} {
		if _, ok := fv.Lookup(s); ok {
			t.Errorf("inverted-span term resolved a lookup of %q", s)
		}
	}
	if err := fv.Validate(); err == nil {
		t.Error("Validate accepted decreasing offsets")
	}
}

// TestFrozenVocabFullTableTerminates is the hostile-artifact
// regression: a probe table that passes the O(1) constructor but has
// no empty bucket — every bucket a valid ID — gave the probe loops
// nothing to stop at, so a lookup of an absent term never returned.
// Both entry points must miss after one pass over the table. The bound
// is the only defence on the trusted path; the derive constructor tags
// every bucket occupied, so there is no empty tag to stop at either.
func TestFrozenVocabFullTableTerminates(t *testing.T) {
	fv, err := NewFrozenVocab([]byte("aa"), []uint32{0, 2}, make([]int32, 16)) // 16 × term 0
	if err != nil {
		t.Fatalf("O(1) constructor rejected a full table: %v", err)
	}
	if id, ok := fv.Lookup("zz"); ok {
		t.Errorf("Lookup of an absent term resolved to %d", id)
	}
	if id, ok := fv.LookupHashed(hashString("zz"), []byte("zz")); ok {
		t.Errorf("LookupHashed of an absent term resolved to %d", id)
	}
	// The term the buckets do name is still found, from any start.
	if id, ok := fv.Lookup("aa"); !ok || id != 0 {
		t.Errorf("Lookup(aa) = %d, %v; want 0, true", id, ok)
	}
}

// TestFrozenVocabBadTags is the table of what a corrupt tag array does
// on each constructor's vocabulary: what an unvalidated lookup answers
// (a miss at worst — never a wrong ID, a panic or a spin) and that
// Validate, which verified loads run, refuses it.
func TestFrozenVocabBadTags(t *testing.T) {
	terms := []string{"alpha", "beta", "gamma", "alpha beta", "delta"}
	base := freezeTerms(terms...)
	occupied, empty := -1, -1
	for i, id := range base.tab {
		if id == 0 {
			occupied = i // the bucket of "alpha"
		}
		if id < 0 && empty < 0 {
			empty = i
		}
	}
	// setTag writes a tag and keeps the mirrored tail in step, so only
	// the corruption under test is present.
	setTag := func(tags []byte, i int, b byte) {
		tags[i] = b
		if i < tagStep {
			tags[len(tags)-tagStep+i] = b
		}
	}

	cases := []struct {
		name    string
		corrupt func(tags []byte)
		lost    bool   // terms may read as misses (never as another term)
		gone    string // this term must read as a miss
	}{
		{"zero tag over an occupied bucket",
			func(tags []byte) { setTag(tags, occupied, 0) }, true, "alpha"},
		{"non-zero tag over an empty bucket",
			func(tags []byte) { setTag(tags, empty, hashTag(hashString("omega"))) }, false, ""},
		{"no empty tag anywhere",
			func(tags []byte) {
				for i, id := range base.tab {
					if id < 0 {
						setTag(tags, i, hashTag(hashString("omega")))
					}
				}
			}, false, ""},
		{"tail does not repeat head", // a chain read through the tail may break there
			func(tags []byte) { tags[len(base.tab)] ^= 0x40 }, true, ""},
	}
	constructors := map[string]func(tags []byte) (*FrozenVocab, error){
		"four sections": func(tags []byte) (*FrozenVocab, error) {
			return newFrozenVocab(base.blob, base.offs, base.tab, tags)
		},
		"derived": func(tags []byte) (*FrozenVocab, error) {
			v, err := NewFrozenVocab(base.blob, base.offs, base.tab)
			if err == nil {
				copy(v.tags, tags)
			}
			return v, err
		},
	}
	for cname, construct := range constructors {
		for _, c := range cases {
			tags := append([]byte(nil), base.tags...)
			c.corrupt(tags)
			v, err := construct(tags)
			if err != nil {
				t.Fatalf("%s, %s: the O(1) constructor checks the tag count only, yet: %v", cname, c.name, err)
			}
			for i, s := range terms {
				id, ok := v.Lookup(s)
				if ok && id != int32(i) {
					t.Errorf("%s, %s: Lookup(%q) = %d, want %d — a bad tag aliased a term", cname, c.name, s, id, i)
				}
				if !ok && !c.lost {
					t.Errorf("%s, %s: Lookup(%q) missed", cname, c.name, s)
				}
				if ok && s == c.gone {
					t.Errorf("%s, %s: %q was still found", cname, c.name, s)
				}
			}
			for _, s := range []string{"omega", "", "alph", "alpha bet"} {
				if id, ok := v.Lookup(s); ok {
					t.Errorf("%s, %s: absent %q resolved to %d", cname, c.name, s, id)
				}
			}
			if err := v.Validate(); err == nil {
				t.Errorf("%s, %s: Validate accepted the tags", cname, c.name)
			}
		}
	}
}

// TestReadSectionsReplacesForeignPlacement: a table placed under another
// hash (the writer's constants or tag rule differ from this build's)
// passes every structural check, and before the canary it loaded and
// scored every term as unknown. ReadSections must re-place it, with or
// without a tag section: every term found under its own ID, the table
// and tags bucket for bucket what this build's freeze writes, the terms
// still views of the artifact. Written out again it loads as it stands.
// A table that is structurally unsound is snapshot.ErrCorrupt, not
// something to re-place.
func TestReadSectionsReplacesForeignPlacement(t *testing.T) {
	terms := []string{"alpha", "beta", "gamma", "alpha beta", "delta"}
	f := freezeTerms(terms...)
	foreign := &FrozenVocab{blob: f.blob, offs: f.offs, mask: f.mask,
		tab: make([]int32, len(f.tab)), tags: make([]byte, len(f.tags))}
	for i := range foreign.tab {
		foreign.tab[i] = -1
	}
	for id, s := range terms {
		h := hashString(s)*0x2545f4914f6cdd1d + 1 // some other hash
		i := h & foreign.mask
		for foreign.tab[i] >= 0 {
			i = (i + 1) & foreign.mask
		}
		foreign.tab[i], foreign.tags[i] = int32(id), hashTag(h)
	}
	copy(foreign.tags[len(foreign.tab):], foreign.tags)
	if err := foreign.Validate(); err != nil {
		t.Fatalf("the foreign table is structurally sound, yet Validate says %v", err)
	}
	// viewed reports whether v's table is the artifact's section rather
	// than a rebuilt copy.
	viewed := func(v *FrozenVocab, a *snapshot.V2Artifact) bool {
		tab, err := a.Int32sView("q" + secTabl)
		return err == nil && &v.tab[0] == &tab[0]
	}
	for _, tagged := range []bool{true, false} {
		a := writeVocab(t, foreign, "q", tagged)
		v, err := ReadSections(a, "q")
		if err != nil {
			t.Fatalf("tagged=%v: ReadSections = %v, want the vocabulary re-placed", tagged, err)
		}
		if viewed(v, a) {
			t.Errorf("tagged=%v: the foreign table is still being served", tagged)
		}
		if blob, _ := a.BytesView("q" + secBlob); &v.blob[0] != &blob[0] {
			t.Errorf("tagged=%v: re-placing copied the terms", tagged)
		}
		if !slices.Equal(v.tab, f.tab) || !bytes.Equal(v.tags, f.tags) {
			t.Errorf("tagged=%v: re-placed table %v tags %v, a freeze of the same terms has %v and %v", tagged, v.tab, v.tags, f.tab, f.tags)
		}
		if err := v.Validate(); err != nil {
			t.Errorf("tagged=%v: Validate on the re-placed vocabulary: %v", tagged, err)
		}
		for id, s := range terms {
			checkLookup(t, v, s, int32(id), true)
			checkLookup(t, v, s+"x", 0, false)
		}
		again := writeVocab(t, v, "q", true)
		if v2, err := ReadSections(again, "q"); err != nil || !viewed(v2, again) {
			t.Errorf("tagged=%v: the re-exported vocabulary did not load as it stands (err %v)", tagged, err)
		}
	}
	// The same sections under this build's placement load as views.
	a := writeVocab(t, f, "q", true)
	if v, err := ReadSections(a, "q"); err != nil || !viewed(v, a) {
		t.Errorf("ReadSections of a well-placed vocabulary re-placed it or failed (err %v)", err)
	}
	// Unsound: a table too small for its terms.
	small := &FrozenVocab{blob: f.blob, offs: f.offs, tab: foreign.tab[:8], tags: foreign.tags[:8+tagStep]}
	if _, err := ReadSections(writeVocab(t, small, "q", true), "q"); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("ReadSections of an undersized table = %v, want snapshot.ErrCorrupt", err)
	}
}

// collide returns n distinct strings whose hash lands on the given
// bucket under mask and, when tag is non-zero, carries that tag.
func collide(t *testing.T, prefix string, mask, bucket uint64, tag byte, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		if i > 5_000_000 {
			t.Fatalf("found only %d of %d strings for bucket %d tag %#02x", len(out), n, bucket, tag)
		}
		s := prefix + strconv.Itoa(i)
		if h := hashString(s); h&mask == bucket && (tag == 0 || hashTag(h) == tag) {
			out = append(out, s)
		}
	}
	return out
}

// referencePlacement is the placement stated on its own, over the term
// strings: the smallest power-of-two table of at least 16 buckets and
// twice the terms, IDs in order, each at the first free bucket from its
// hash, tagged from the hash's high bits, the first tags repeated at the
// end. It is what every build since the tags has written for an ordered
// list of distinct terms.
func referencePlacement(terms []string) (tab []int32, tags []byte) {
	size := 16
	for size < 2*len(terms) {
		size *= 2
	}
	tab, tags = make([]int32, size), make([]byte, size+tagStep)
	for i := range tab {
		tab[i] = -1
	}
	for id, s := range terms {
		h := hashString(s)
		i := h & uint64(size-1)
		for tab[i] >= 0 {
			i = (i + 1) & uint64(size-1)
		}
		tab[i], tags[i] = int32(id), hashTag(h)
	}
	copy(tags[size:], tags)
	return tab, tags
}

// TestFreezeVocabPlacement holds the one builder to the reference
// placement, bucket for bucket, at the term counts around a table
// doubling and on a chain forced into one bucket, and reads every
// vocabulary back: each term finds its own ID, its near neighbours miss.
func TestFreezeVocabPlacement(t *testing.T) {
	// Five strings of one bucket: four make the chain, a probe for the
	// fifth walks all of it and still misses.
	chain := collide(t, "term", 15, hashString("term0")&15, 0, 5)
	type termList struct {
		name  string
		terms []string
	}
	cases := []termList{
		{"chain", chain[:4]},
		{"phrases", []string{"find cheap", "flights", "new york", "20% off", "$99", "find cheap flights"}},
	}
	for _, n := range []int{0, 1, 7, 8, 9, 5000} {
		terms := make([]string, n)
		for i := range terms {
			terms[i] = "w" + strconv.Itoa(i)
		}
		cases = append(cases, termList{strconv.Itoa(n) + " terms", terms})
	}
	for _, c := range cases {
		terms := c.terms
		t.Run(c.name, func(t *testing.T) {
			f := FreezeVocab(terms)
			tab, tags := referencePlacement(terms)
			if !slices.Equal(f.tab, tab) || !bytes.Equal(f.tags, tags) || f.mask != uint64(len(tab)-1) {
				t.Fatalf("placement differs from the reference: %d buckets, mask %#x, reference %d buckets", len(f.tab), f.mask, len(tab))
			}
			if err := f.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if f.Len() != len(terms) {
				t.Fatalf("Len = %d, want %d", f.Len(), len(terms))
			}
			member := make(map[string]bool, len(terms))
			for _, s := range terms {
				member[s] = true
			}
			for i, s := range terms {
				checkLookup(t, f, s, int32(i), true)
				if f.Text(int32(i)) != s {
					t.Errorf("Text(%d) = %q, want %q", i, f.Text(int32(i)), s)
				}
				for _, absent := range []string{s + "x", s[:len(s)-1], s + " ", " " + s, strings.ToUpper(s) + "!"} {
					if !member[absent] {
						checkLookup(t, f, absent, 0, false)
					}
				}
			}
			checkLookup(t, f, "", 0, false)
			checkLookup(t, f, chain[4], 0, false)
		})
	}
}

// TestFrozenVocabProbeShapes pins the shapes of a tagged step a fuzzer
// reaches slowly.
func TestFrozenVocabProbeShapes(t *testing.T) {
	t.Run("chain crosses the end of the table", func(t *testing.T) {
		// Six terms starting at bucket 13 of 16 occupy 13, 14, 15, 0, 1, 2:
		// the step that starts at 13 reads the mirrored tail.
		terms := collide(t, "w", 15, 13, 0, 6)
		f := freezeTerms(terms...)
		if len(f.tab) != 16 || f.tab[15] < 0 || f.tab[0] < 0 || f.tab[2] < 0 {
			t.Fatalf("chain did not wrap: table %v", f.tab)
		}
		for i, s := range terms {
			checkLookup(t, f, s, int32(i), true)
		}
		for _, s := range collide(t, "absent", 15, 13, 0, 4) {
			checkLookup(t, f, s, 0, false)
		}
		for _, s := range collide(t, "absent", 15, 15, 0, 4) {
			checkLookup(t, f, s, 0, false)
		}
	})

	t.Run("hit in the eighth bucket of a step", func(t *testing.T) {
		terms := collide(t, "e", 15, 3, 0, 8) // buckets 3..10; the last is the step's eighth
		f := freezeTerms(terms...)
		if f.tab[10] != 7 {
			t.Fatalf("eighth term sits elsewhere: table %v", f.tab)
		}
		for i, s := range terms {
			checkLookup(t, f, s, int32(i), true)
		}
	})

	t.Run("hit in the second step", func(t *testing.T) {
		terms := collide(t, "s", 31, 30, 0, 12) // buckets 30, 31, 0..9 of 32
		f := freezeTerms(terms...)
		if len(f.tab) != 32 {
			t.Fatalf("table has %d buckets, want 32", len(f.tab))
		}
		for i, s := range terms {
			checkLookup(t, f, s, int32(i), true)
		}
		for _, s := range collide(t, "absent", 31, 30, 0, 4) {
			checkLookup(t, f, s, 0, false)
		}
	})

	t.Run("match above the first empty tag is ignored", func(t *testing.T) {
		// "a" is moved two buckets down its chain, past an empty bucket:
		// a linear probe stops at the empty one and so must the tagged
		// step, although the matching tag is in the same eight.
		f := freezeTerms("a")
		from := hashString("a") & f.mask
		to := (from + 2) & f.mask
		f.tab[to], f.tab[from] = f.tab[from], -1
		f.tags[to], f.tags[from] = f.tags[from], 0
		copy(f.tags[len(f.tab):], f.tags)
		if err := f.Validate(); err != nil {
			t.Fatalf("the moved entry is structurally sound, yet Validate says %v", err)
		}
		checkLookup(t, f, "a", 0, false)
	})

	t.Run("nine equal tags in a row", func(t *testing.T) {
		tag := hashTag(hashString("r0"))
		all := collide(t, "r", 31, 5, tag, 10)
		terms, absent := all[:9], all[9]
		f := freezeTerms(terms...)
		for i := 5; i < 14; i++ {
			if f.tags[i] != tag {
				t.Fatalf("tags[%d] = %#02x, want %#02x: %v", i, f.tags[i], tag, f.tags)
			}
		}
		for i, s := range terms {
			checkLookup(t, f, s, int32(i), true)
		}
		checkLookup(t, f, absent, 0, false)
	})

	t.Run("one term", func(t *testing.T) {
		f := freezeTerms("only")
		checkLookup(t, f, "only", 0, true)
		checkLookup(t, f, "onl", 0, false)
		checkLookup(t, f, "", 0, false)
	})

	t.Run("no terms", func(t *testing.T) {
		f := freezeTerms()
		checkLookup(t, f, "anything", 0, false)
		checkLookup(t, f, "", 0, false)
		if err := f.Validate(); err != nil {
			t.Errorf("Validate on an empty vocabulary: %v", err)
		}
		for _, tagged := range []bool{true, false} {
			v, err := ReadSections(writeVocab(t, f, "v", tagged), "v")
			if err != nil {
				t.Fatalf("tagged=%v: ReadSections of an empty vocabulary: %v", tagged, err)
			}
			checkLookup(t, v, "anything", 0, false)
		}
	})
}

// TestFrozenLookupNoalloc backs the //mb:noalloc annotations on
// LookupHashed, Lookup and the probe under both: hit or miss, byte
// window or string, a lookup allocates nothing.
func TestFrozenLookupNoalloc(t *testing.T) {
	f := freezeTerms("find cheap flights", "new york")
	hit := []byte("find cheap flights")
	miss := []byte("not in the vocab at all, and longer than a stack buffer would be")
	hh, mh := hashBytes(hit), hashBytes(miss)
	allocs := testing.AllocsPerRun(100, func() {
		f.LookupHashed(hh, hit)
		f.LookupHashed(mh, miss)
		f.Lookup("new york")
		f.Lookup("old york, which is also longer than thirty-two bytes of text")
	})
	if allocs != 0 {
		t.Errorf("frozen lookups allocate %v per run, want 0", allocs)
	}
}

// FuzzFrozenLookup is the differential test of the tagged probe. The
// fuzz bytes are newline-separated terms; the first byte caps how many
// are kept, so small caps force every string onto the few chains of a
// 16-bucket table. Every member, near-member (last byte flipped, one
// byte more, one byte less) and a few fixed strings is then looked up
// in three vocabularies — frozen from the list, derived from three
// sections, and read back from a written artifact — and each answer
// must equal the oracle probe's and plain map membership.
func FuzzFrozenLookup(f *testing.F) {
	f.Add([]byte("\x08cheap\nflights\ncheap flights\nfind cheap flights\n20% off\nx"))
	f.Add([]byte("\x03a\nb\nc\nd\ne\nf\ng\nh"))
	f.Add([]byte("\x28a\nb\nc\nd\ne\nf\ng\nh\ni\nj\nk\nl\nm\nn\no\np\nq\nr\ns\nt\nu\nv\nw\nx\ny\nz\na a\na b\nb a\nb b"))
	f.Add([]byte("\x00"))
	f.Add([]byte("\xff\n\n \n  \na \n a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		limit := int(data[0]) % 64
		want := map[string]int32{}
		var terms []string
		for _, term := range bytes.Split(data[1:], []byte{'\n'}) {
			if len(want) == limit {
				break
			}
			if _, dup := want[string(term)]; !dup {
				want[string(term)] = int32(len(terms))
				terms = append(terms, string(term))
			}
		}
		frozen := FreezeVocab(terms)
		derived, err := NewFrozenVocab(frozen.blob, frozen.offs, frozen.tab)
		if err != nil {
			t.Fatalf("NewFrozenVocab: %v", err)
		}
		mapped, err := ReadSections(writeVocab(t, frozen, "v", true), "v")
		if err != nil {
			t.Fatalf("ReadSections: %v", err)
		}
		vocabs := []struct {
			name string
			v    *FrozenVocab
		}{{"frozen", frozen}, {"derived", derived}, {"mapped", mapped}}
		for _, x := range vocabs {
			if err := x.v.Validate(); err != nil {
				t.Fatalf("%s: Validate: %v", x.name, err)
			}
		}

		probes := [][]byte{nil, []byte("x"), []byte(" "), []byte("cheap flights")}
		for _, term := range terms { // not the map: a fuzz target's coverage must repeat
			b := []byte(term)
			probes = append(probes, b, append(append([]byte(nil), b...), 'x'))
			if len(b) > 0 {
				flipped := append([]byte(nil), b...)
				flipped[len(b)-1] ^= 1
				probes = append(probes, flipped, b[:len(b)-1])
			}
		}
		for _, p := range probes {
			wantID, wantOK := want[string(p)]
			h := hashBytes(p)
			if hs := hashString(string(p)); hs != h {
				t.Fatalf("hashBytes(%q) = %x, hashString = %x", p, h, hs)
			}
			for _, x := range vocabs {
				oid, ook := oracleLookup(x.v, h, p)
				gid, gok := x.v.LookupHashed(h, p)
				sid, sok := x.v.Lookup(string(p))
				if gok != wantOK || ook != wantOK || sok != wantOK || wantOK && (gid != wantID || oid != wantID || sid != wantID) {
					t.Fatalf("%s: lookup %q: LookupHashed (%d, %v), Lookup (%d, %v), oracle (%d, %v), map (%d, %v)",
						x.name, p, gid, gok, sid, sok, oid, ook, wantID, wantOK)
				}
			}
		}
	})
}

// TestVocab is the growable vocabulary's contract, one row per input
// sequence: IDs are dense and first-seen, a string not interned misses,
// Text inverts ID, LookupBytes agrees with Lookup without allocating,
// Reset forgets everything, and FreezeVocab(Texts()) keeps every ID.
func TestVocab(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []string
		ids  []int32 // the ID each input gets
		miss []string
	}{
		{"empty", nil, nil, []string{"", "a"}},
		{"first seen", []string{"b", "a", "c"}, []int32{0, 1, 2}, []string{"d", "ab"}},
		{"repeats keep their ID", []string{"x", "y", "x", "y", "z"}, []int32{0, 1, 0, 1, 2}, []string{"X"}},
		{"n-grams and the empty string", []string{"find cheap", "", "find", "find cheap"}, []int32{0, 1, 2, 0}, []string{"cheap", "find "}},
		{"non-ASCII", []string{"café", "cafe", "ünïted"}, []int32{0, 1, 2}, []string{"CAFÉ"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var v Vocab
			for i, s := range tc.in {
				if id := v.ID(s); id != tc.ids[i] {
					t.Fatalf("ID(%q) = %d, want %d", s, id, tc.ids[i])
				}
			}
			distinct := slices.Compact(slices.Sorted(slices.Values(tc.ids)))
			if v.Len() != len(distinct) || len(v.Texts()) != len(distinct) {
				t.Fatalf("Len %d, Texts %d, want %d", v.Len(), len(v.Texts()), len(distinct))
			}
			for i, s := range tc.in {
				id, ok := v.Lookup(s)
				bid, bok := v.LookupBytes([]byte(s))
				if !ok || id != tc.ids[i] || bid != id || !bok {
					t.Errorf("Lookup(%q) = %d,%v, LookupBytes %d,%v, want %d", s, id, ok, bid, bok, tc.ids[i])
				}
				if got := v.Text(tc.ids[i]); got != s {
					t.Errorf("Text(%d) = %q, want %q", tc.ids[i], got, s)
				}
			}
			for _, s := range tc.miss {
				if id, ok := v.Lookup(s); ok {
					t.Errorf("Lookup(%q) = %d, want a miss", s, id)
				}
				if id, ok := v.LookupBytes([]byte(s)); ok {
					t.Errorf("LookupBytes(%q) = %d, want a miss", s, id)
				}
			}
			fv := FreezeVocab(v.Texts())
			for id, s := range v.Texts() {
				if got, ok := fv.Lookup(s); !ok || got != int32(id) {
					t.Errorf("frozen Lookup(%q) = %d,%v, want %d", s, got, ok, id)
				}
			}
			v.Reset()
			if v.Len() != 0 {
				t.Errorf("Len after Reset = %d", v.Len())
			}
			for _, s := range tc.in {
				if _, ok := v.Lookup(s); ok {
					t.Errorf("Lookup(%q) hits after Reset", s)
				}
			}
			if len(tc.in) > 0 {
				if id := v.ID(tc.in[len(tc.in)-1]); id != 0 {
					t.Errorf("first ID after Reset = %d, want 0", id)
				}
			}
		})
	}
}

// TestVocabLookupBytesNoalloc backs the //mb:noalloc annotation on
// Vocab.LookupBytes: a hit and a miss look the map up with the bytes as
// they are.
func TestVocabLookupBytesNoalloc(t *testing.T) {
	var v Vocab
	v.ID("find cheap")
	hit, miss := []byte("find cheap"), []byte("find dear")
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := v.LookupBytes(hit); !ok {
			t.Fatal("miss on an interned term")
		}
		if _, ok := v.LookupBytes(miss); ok {
			t.Fatal("hit on a term never interned")
		}
	})
	if allocs != 0 {
		t.Errorf("LookupBytes allocates %v per run, want 0", allocs)
	}
}
