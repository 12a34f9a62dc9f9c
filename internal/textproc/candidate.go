package textproc

// CandidateSet is the shared tokenisation scratch of the candidate-set
// scoring path (POST /v1/optimize): one query × N candidate snippets,
// where the candidates are edits of a common base, so most lines occur
// in many candidates. Scoring them through a per-snippet Scratch pays
// normalisation + tokenisation + vocab lookups N times over; a
// CandidateSet pays them once per DISTINCT line.
//
// Lines are deduplicated by a hash-keyed open-addressed table with an
// exact raw-byte comparison on every probe (the same collision
// discipline as the vocabulary: a colliding hash can only cost an extra
// compare, never alias two lines). Each distinct line is tokenised
// exactly once into one shared normalised-byte arena — span offsets are
// absolute, and the first token of a line starts flush against the
// previous line's bytes, so windows cannot bleed across lines — and its
// n-gram term IDs are resolved against the interned vocabulary exactly
// once, memoised by Terms.
//
// A CandidateSet is owned by one goroutine at a time (the engine keeps
// one per pooled scratch); the zero value is ready to use, and Reset
// reuses all arenas so a warm set allocates nothing.

// LineID names one distinct line within a CandidateSet, valid until the
// next Reset. IDs are dense, assigned in first-seen order.
type LineID int32

// candLine is the per-distinct-line record: its dedup key (raw-content
// hash plus the raw string for the exact compare), its token-span
// window in the shared arena, and the offset of its memoised term IDs
// (-1 until Terms resolves them).
type candLine struct {
	hash      uint64
	raw       string
	spanStart int32
	spanEnd   int32
	idStart   int32
}

// CandidateSet holds the shared arenas. All slices grow on demand and
// are retained across Reset.
type CandidateSet struct {
	norm  []byte
	spans []TokenSpan
	lines []candLine
	table []int32 // open-addressed dedup buckets; -1 = empty
	mask  uint64

	// Term-ID memo: ids holds maxN entries per token of each resolved
	// line (entry i*maxN+n-1 is the ID of the (n)-gram starting at token
	// i, -1 = not in the vocabulary). The memo is keyed by the
	// (vocab, maxN) pair it was resolved against; a different pair
	// invalidates it wholesale.
	ids       []int32
	memoVocab *FrozenVocab
	memoMaxN  int
}

// minCandTable mirrors minVocabTable: small sets still terminate
// probes quickly.
const minCandTable = 16

// Reset forgets every line while keeping the arenas' capacity. Raw
// line strings are cleared so a pooled set does not pin request
// buffers beyond the call that brought them.
func (cs *CandidateSet) Reset() {
	cs.norm = cs.norm[:0]
	cs.spans = cs.spans[:0]
	for i := range cs.lines {
		cs.lines[i].raw = ""
	}
	cs.lines = cs.lines[:0]
	for i := range cs.table {
		cs.table[i] = -1
	}
	cs.ids = cs.ids[:0]
	cs.memoVocab = nil
	cs.memoMaxN = 0
}

// Len reports the number of distinct lines added since the last Reset.
func (cs *CandidateSet) Len() int { return len(cs.lines) }

// Tokens reports line id's token count.
func (cs *CandidateSet) Tokens(id LineID) int {
	l := &cs.lines[id]
	return int(l.spanEnd - l.spanStart)
}

// Line returns the raw text line id was first added as.
func (cs *CandidateSet) Line(id LineID) string { return cs.lines[id].raw }

// AddLine interns a raw line, tokenising it only if its content has
// not been seen since the last Reset, and returns its dense ID.
//
//mb:noalloc
func (cs *CandidateSet) AddLine(line string) LineID {
	return cs.addLine(line, HashLine(line))
}

// HashLine is the dedup key of a raw line, here and in the engine's
// snippet memo (which folds a snippet's line hashes together with
// ExtendNGramHash). It never has to agree with the vocabulary's hash —
// the user's byte compare decides, addLine's raw == line here — so it
// takes the raw bytes eight per step with no per-byte branch: a
// multiply-xorshift per word, the length in the seed, and the last
// word read overlapping the one before it (lines under eight bytes are
// gathered byte by byte).
func HashLine(s string) uint64 {
	h := hashSeed ^ uint64(len(s))*hashMult1
	var tail uint64
	if len(s) >= 8 {
		for i := 0; i+8 < len(s); i += 8 {
			h = (h ^ le64(s[i:])) * hashMult2
			h ^= h >> 32
		}
		tail = le64(s[len(s)-8:])
	} else {
		for i := 0; i < len(s); i++ {
			tail |= uint64(s[i]) << (8 * i)
		}
	}
	h = (h ^ tail) * hashMult2
	return h ^ h>>32
}

// le64 is binary.LittleEndian.Uint64 for a string or a byte slice: the
// compiler merges the eight byte loads into one.
func le64[K string | []byte](s K) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// addLine is AddLine with the dedup hash supplied by the caller, split
// out so the collision tests can force two distinct lines onto one
// probe chain.
//
//mb:noalloc
func (cs *CandidateSet) addLine(line string, h uint64) LineID {
	if len(cs.table) == 0 {
		cs.growTable(minCandTable) //mb:allocok first use of a zero-value set
	}
	for i := h & cs.mask; ; i = (i + 1) & cs.mask {
		id := cs.table[i]
		if id < 0 {
			break
		}
		if l := &cs.lines[id]; l.hash == h && l.raw == line {
			return LineID(id)
		}
	}
	id := int32(len(cs.lines))
	spanStart := int32(len(cs.spans))
	cs.norm, cs.spans = appendTokens(cs.norm, cs.spans, line)
	cs.lines = append(cs.lines, candLine{
		hash:      h,
		raw:       line,
		spanStart: spanStart,
		spanEnd:   int32(len(cs.spans)),
		idStart:   -1,
	})
	// Keep the load factor under 1/2, as FreezeVocab sizes its table.
	if 2*len(cs.lines) > len(cs.table) {
		cs.growTable(2 * len(cs.table)) //mb:allocok capacity miss: table doubles, then reused
	} else {
		cs.place(h, id)
	}
	return LineID(id)
}

// growTable rebuilds the probe table at the given power-of-two size,
// re-placing every line by its stored hash.
func (cs *CandidateSet) growTable(size int) {
	if cap(cs.table) >= size {
		cs.table = cs.table[:size]
	} else {
		cs.table = make([]int32, size)
	}
	for i := range cs.table {
		cs.table[i] = -1
	}
	cs.mask = uint64(size - 1)
	for id := range cs.lines {
		cs.place(cs.lines[id].hash, int32(id))
	}
}

// place inserts an ID at the first free bucket of its probe chain.
func (cs *CandidateSet) place(h uint64, id int32) {
	for i := h & cs.mask; ; i = (i + 1) & cs.mask {
		if cs.table[i] < 0 {
			cs.table[i] = id
			return
		}
	}
}

// Terms returns line id's n-gram term IDs resolved against v, laid out
// GramOrder(maxN) entries per token: with maxN so clamped, entry
// i*maxN+(n-1) is the vocabulary ID of the n-gram window starting at
// token i, or -1 when the window is not in the vocabulary (or extends
// past the line — callers bound n by the remaining token count, so
// those tail entries are never read). The first call per line does the
// vocab lookups; repeats are memo hits.
// The returned slice is valid until the next Terms call (the memo
// arena may grow and move).
//
// The memo is only coherent for one (vocab, maxN) pair at a time;
// resolving against a different pair — a hot-swapped model mid-set —
// drops every line's memo and starts over. Correct either way, fast in
// the only case that matters.
//
//mb:noalloc
func (cs *CandidateSet) Terms(id LineID, maxN int, v *FrozenVocab) []int32 {
	maxN = GramOrder(maxN)
	if v != cs.memoVocab || maxN != cs.memoMaxN {
		cs.ids = cs.ids[:0]
		for i := range cs.lines {
			cs.lines[i].idStart = -1
		}
		cs.memoVocab, cs.memoMaxN = v, maxN
	}
	l := &cs.lines[id]
	ntok := int(l.spanEnd - l.spanStart)
	if l.idStart >= 0 {
		return cs.ids[l.idStart : int(l.idStart)+ntok*maxN]
	}
	start := len(cs.ids)
	spans := cs.spans[l.spanStart:l.spanEnd]
	for i := range spans {
		nmax := maxN
		if left := len(spans) - i; left < nmax {
			nmax = left
		}
		h := NGramHashSeed
		ws := spans[i].Start
		for n := 1; n <= maxN; n++ {
			tid := int32(-1)
			if n <= nmax {
				sp := spans[i+n-1]
				h = ExtendNGramHash(h, sp.Hash)
				if vid, ok := v.LookupHashed(h, cs.norm[ws:sp.End]); ok {
					tid = vid
				}
			}
			cs.ids = append(cs.ids, tid)
		}
	}
	l.idStart = int32(start)
	return cs.ids[start : start+ntok*maxN]
}
