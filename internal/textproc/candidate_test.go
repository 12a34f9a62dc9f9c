package textproc

import (
	"fmt"
	"testing"
)

// candTestVocab freezes a vocabulary holding every 1..3-gram of the
// given lines, the shape CompiledModel serves against.
func candTestVocab(lines ...string) *FrozenVocab {
	var terms []string
	seen := map[string]bool{}
	for _, t := range ExtractTerms(lines, 3) {
		if !seen[t.Text] {
			seen[t.Text] = true
			terms = append(terms, t.Text)
		}
	}
	return FreezeVocab(terms)
}

func TestCandidateSetDedupAndTokenParity(t *testing.T) {
	lines := []string{
		"Find Cheap Flights to Rome!",
		"Great rates",
		"",
		"Find Cheap Flights to Rome!", // dup of 0
		"20% off — today only",
	}
	var cs CandidateSet
	ids := make([]LineID, len(lines))
	for i, ln := range lines {
		ids[i] = cs.AddLine(ln)
	}
	if ids[3] != ids[0] {
		t.Fatalf("duplicate line got id %d, want %d", ids[3], ids[0])
	}
	if cs.Len() != 4 {
		t.Fatalf("Len = %d, want 4 distinct lines", cs.Len())
	}
	var sc Scratch
	for i, ln := range lines {
		id := ids[i]
		spans := sc.Tokenize(ln)
		if got := cs.Tokens(id); got != len(spans) {
			t.Fatalf("line %d: Tokens = %d, Scratch tokenised %d", i, got, len(spans))
		}
		if got := cs.Line(id); got != ln {
			t.Fatalf("line %d: Line() = %q, want %q", i, got, ln)
		}
		// The arena spans must carry the same hashes and the same
		// normalised bytes as a per-line Scratch.
		l := &cs.lines[id]
		arena := cs.spans[l.spanStart:l.spanEnd]
		for k, sp := range spans {
			asp := arena[k]
			if asp.Hash != sp.Hash {
				t.Fatalf("line %d token %d: arena hash %x, scratch hash %x", i, k, asp.Hash, sp.Hash)
			}
			if got, want := string(cs.norm[asp.Start:asp.End]), string(sc.Norm[sp.Start:sp.End]); got != want {
				t.Fatalf("line %d token %d: arena %q, scratch %q", i, k, got, want)
			}
		}
	}
}

func TestCandidateSetTermsMatchesDirectLookup(t *testing.T) {
	lines := []string{"Find cheap flights to Rome", "Great rates on hotels"}
	v := candTestVocab(lines[0]) // line 1 fully known, line 2 mostly unknown
	var cs CandidateSet
	for maxN := 1; maxN <= 3; maxN++ {
		cs.Reset()
		for _, ln := range lines {
			id := cs.AddLine(ln)
			ids := cs.Terms(id, maxN, v)
			var sc Scratch
			spans := sc.Tokenize(ln)
			if len(ids) != len(spans)*maxN {
				t.Fatalf("maxN=%d %q: %d ids, want %d", maxN, ln, len(ids), len(spans)*maxN)
			}
			for i := range spans {
				for n := 1; n <= maxN && i+n <= len(spans); n++ {
					h := NGramHashSeed
					for k := i; k < i+n; k++ {
						h = ExtendNGramHash(h, spans[k].Hash)
					}
					want := int32(-1)
					if vid, ok := v.LookupHashed(h, sc.Norm[spans[i].Start:spans[i+n-1].End]); ok {
						want = vid
					}
					if got := ids[i*maxN+n-1]; got != want {
						t.Fatalf("maxN=%d %q window (%d,%d): id %d, want %d", maxN, ln, i, n, got, want)
					}
				}
			}
		}
	}
}

// TestCandidateSetTermsMemo pins that repeated Terms calls are memo
// hits (same backing offsets, same values) and that switching the
// vocabulary or gram order invalidates the memo instead of serving
// stale IDs.
func TestCandidateSetTermsMemo(t *testing.T) {
	line := "find cheap flights"
	vAll := candTestVocab(line)
	vNone := candTestVocab("totally different words here")
	var cs CandidateSet
	id := cs.AddLine(line)

	first := cs.Terms(id, 2, vAll)
	again := cs.Terms(id, 2, vAll)
	if len(first) != len(again) {
		t.Fatalf("memo hit changed length: %d vs %d", len(first), len(again))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("memo hit changed ids[%d]: %d vs %d", i, first[i], again[i])
		}
	}
	if first[0] < 0 {
		t.Fatalf("unigram %q unresolved against its own vocab", line)
	}
	// Different vocab: every window must re-resolve (here: all misses).
	for i, tid := range cs.Terms(id, 2, vNone) {
		if tid != -1 {
			t.Fatalf("stale memo: ids[%d] = %d against a foreign vocab", i, tid)
		}
	}
	// And back: re-resolving against the first vocab works again.
	if got := cs.Terms(id, 2, vAll)[0]; got != first[0] {
		t.Fatalf("re-resolution against original vocab gave %d, want %d", got, first[0])
	}
}

// TestCandidateSetForcedCollision drives two distinct lines through
// one probe chain by forging equal dedup hashes: the raw-byte compare
// must keep them distinct, and the true duplicate must still dedup.
func TestCandidateSetForcedCollision(t *testing.T) {
	var cs CandidateSet
	const h = uint64(0xdeadbeef)
	a := cs.addLine("alpha one", h)
	b := cs.addLine("beta two", h)
	if a == b {
		t.Fatalf("hash collision aliased two distinct lines to id %d", a)
	}
	if got := cs.addLine("alpha one", h); got != a {
		t.Fatalf("colliding duplicate resolved to %d, want %d", got, a)
	}
	if got := cs.addLine("beta two", h); got != b {
		t.Fatalf("colliding duplicate resolved to %d, want %d", got, b)
	}
	if cs.Line(a) != "alpha one" || cs.Line(b) != "beta two" {
		t.Fatalf("collided lines corrupted: %q / %q", cs.Line(a), cs.Line(b))
	}
}

// TestCandidateSetGrowKeepsCollisions grows the table past several
// doublings with colliding hashes in play.
func TestCandidateSetGrowKeepsCollisions(t *testing.T) {
	var cs CandidateSet
	ids := map[string]LineID{}
	for i := 0; i < 200; i++ {
		ln := fmt.Sprintf("line number %d", i)
		ids[ln] = cs.addLine(ln, uint64(i%3)) // 3 hash values, 200 lines
	}
	if cs.Len() != 200 {
		t.Fatalf("Len = %d, want 200", cs.Len())
	}
	for ln, want := range ids {
		var n int
		fmt.Sscanf(ln, "line number %d", &n)
		if got := cs.addLine(ln, uint64(n%3)); got != want {
			t.Fatalf("after growth, %q resolved to %d, want %d", ln, got, want)
		}
	}
}

func TestCandidateSetReset(t *testing.T) {
	v := candTestVocab("hello world")
	var cs CandidateSet
	id := cs.AddLine("hello world")
	if got := cs.Terms(id, 2, v)[0]; got < 0 {
		t.Fatal("unigram unresolved before reset")
	}
	cs.Reset()
	if cs.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", cs.Len())
	}
	id2 := cs.AddLine("goodbye")
	if id2 != 0 {
		t.Fatalf("first line after Reset got id %d, want 0", id2)
	}
	for i, tid := range cs.Terms(id2, 2, v) {
		if tid != -1 {
			t.Fatalf("ids[%d] = %d for an out-of-vocab line after Reset", i, tid)
		}
	}
}

// TestCandidateSetNoalloc backs the //mb:noalloc annotations on
// AddLine, addLine and Terms: a warm Reset/AddLine/Terms cycle over a
// fixed line set must not allocate.
func TestCandidateSetNoalloc(t *testing.T) {
	lines := []string{
		"Find cheap flights to Rome",
		"Great rates",
		"Book now and save 20%",
		"Find cheap flights to Rome", // dup exercises the probe-hit path
	}
	v := candTestVocab(lines...)
	var cs CandidateSet
	cycle := func() {
		cs.Reset()
		for _, ln := range lines {
			id := cs.AddLine(ln)
			ids := cs.Terms(id, 3, v)
			if len(ids) > 0 && ids[0] < -1 {
				t.Fatal("impossible id")
			}
			_ = cs.Terms(id, 3, v) // memo hit
		}
	}
	cycle() // warm the arenas
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("warm candidate-set cycle allocates %v/op, want 0", allocs)
	}
}
