package textproc

// FrozenVocab is the immutable, flat form of a TermVocab: term texts
// live in one contiguous byte blob indexed by an offsets array, and
// the open-addressed probe table is a plain []int32 — three slices
// with no interior pointers, so a frozen vocabulary can be serialized
// as raw sections and reconstituted over foreign memory (a read-only
// file mapping) without touching a single term. This is the classic
// flat-language-model layout: the on-disk bytes ARE the lookup
// structure, and N processes mapping the same artifact share one page
// cache copy.
//
// The lookup methods mirror TermVocab's exactly — same two-level hash,
// same probe discipline, same byte-compare collision check — so the
// compiled scoring loop is indifferent to which side of a freeze it is
// reading. A corrupt probe table can only cause misses (the byte
// compare rejects wrong IDs); it can never alias two distinct terms.

import (
	"errors"
	"fmt"
	"math/bits"
)

// FrozenVocab is built by FreezeVocab (from an in-memory TermVocab) or
// NewFrozenVocab (over foreign memory). It is immutable and safe for
// concurrent use. When the backing slices view a file mapping, the
// mapping must outlive the vocabulary — the engine's refcounted
// version table enforces this for serving.
type FrozenVocab struct {
	blob []byte
	offs []uint32 // len n+1; term i is blob[offs[i]:offs[i+1]]
	tab  []int32  // open-addressed probe table; -1 = empty
	mask uint64
}

// FreezeVocab flattens an in-memory vocabulary: term texts are copied
// into one blob and the probe table is rebuilt at the same geometry.
// The source vocabulary must not be mutated afterwards if the caller
// intends the frozen form to stay equivalent.
func FreezeVocab(v *TermVocab) *FrozenVocab {
	n := v.Len()
	total := 0
	for _, s := range v.strs {
		total += len(s)
	}
	f := &FrozenVocab{
		blob: make([]byte, 0, total),
		offs: make([]uint32, n+1),
		tab:  make([]int32, len(v.table)),
		mask: v.mask,
	}
	for i, s := range v.strs {
		f.offs[i] = uint32(len(f.blob))
		f.blob = append(f.blob, s...)
	}
	f.offs[n] = uint32(len(f.blob))
	copy(f.tab, v.table)
	return f
}

// NewFrozenVocab wraps pre-built sections — typically views into a
// mapped artifact — after O(1) structural checks: offsets bracketing
// the blob and a power-of-two probe table large enough for the term
// count. Per-element invariants (monotone offsets, in-range bucket
// IDs) are NOT checked here — that would make every mapped load O(size)
// and defeat the zero-parse layout; Validate runs them on demand for
// loads of untrusted bytes. The lookup loop bounds-checks every probe
// itself and gives up after one pass over the table, so a vocabulary
// corrupted past the constructor degrades to lookup misses, never to
// aliased terms, out-of-range panics or an endless probe.
func NewFrozenVocab(blob []byte, offs []uint32, tab []int32) (*FrozenVocab, error) {
	if len(offs) == 0 {
		return nil, errors.New("textproc: frozen vocab needs an offsets array")
	}
	n := len(offs) - 1
	if offs[0] != 0 || uint32(len(blob)) != offs[n] {
		return nil, fmt.Errorf("textproc: frozen vocab offsets cover [%d,%d) but blob holds %d bytes", offs[0], offs[n], len(blob))
	}
	if len(tab) < minVocabTable || bits.OnesCount(uint(len(tab))) != 1 {
		return nil, fmt.Errorf("textproc: frozen vocab probe table size %d is not a power of two >= %d", len(tab), minVocabTable)
	}
	if len(tab) < 2*n {
		return nil, fmt.Errorf("textproc: frozen vocab probe table (%d buckets) cannot hold %d terms at load factor 1/2", len(tab), n)
	}
	return &FrozenVocab{blob: blob, offs: offs, tab: tab, mask: uint64(len(tab) - 1)}, nil
}

// Validate runs the O(n) per-element checks NewFrozenVocab skips:
// monotone offsets covering the blob and every probe bucket either
// empty or a valid term ID. Verified load paths (artifacts arriving
// over the network or flagged untrusted) call this once before
// install; trusted local loads skip it and rely on the lookup loop's
// own bounds checks. Hash placement is still not verified — a
// misplaced entry can only cause misses.
func (v *FrozenVocab) Validate() error {
	n := v.Len()
	for i := 0; i < n; i++ {
		if v.offs[i] > v.offs[i+1] {
			return fmt.Errorf("textproc: frozen vocab offset %d decreases (%d -> %d)", i, v.offs[i], v.offs[i+1])
		}
	}
	for i, id := range v.tab {
		if id < -1 || int(id) >= n {
			return fmt.Errorf("textproc: frozen vocab bucket %d holds id %d of %d terms", i, id, n)
		}
	}
	return nil
}

// term returns term id's byte window, or false when the offsets or ID
// are corrupt — the per-probe bounds check that lets unvalidated
// mappings degrade to misses instead of panicking.
func (v *FrozenVocab) term(id int32) ([]byte, bool) {
	if uint(id)+1 >= uint(len(v.offs)) {
		return nil, false
	}
	lo, hi := v.offs[id], v.offs[id+1]
	if lo > hi || uint64(hi) > uint64(len(v.blob)) {
		return nil, false
	}
	return v.blob[lo:hi], true
}

// LookupHashed resolves a normalised byte window whose hash the caller
// built with NGramHashSeed/ExtendNGramHash — the hot call of the
// compiled scoring path, identical in shape to TermVocab.LookupHashed.
//
// The probe is bounded by the table length: a well-formed table always
// has an empty bucket to stop at, but an unvalidated one may have none,
// and a full table of valid IDs must end in a miss, not a spin.
func (v *FrozenVocab) LookupHashed(h uint64, b []byte) (int32, bool) {
	for i, left := h&v.mask, len(v.tab); left > 0; i, left = (i+1)&v.mask, left-1 {
		id := v.tab[i]
		if id < 0 {
			return 0, false
		}
		text, ok := v.term(id)
		if !ok {
			return 0, false
		}
		if string(text) == string(b) { // comparison-only conversions: no alloc
			return id, true
		}
	}
	return 0, false
}

// Lookup resolves a term string without interning, under the same
// probe bound as LookupHashed.
func (v *FrozenVocab) Lookup(s string) (int32, bool) {
	for i, left := hashString(s)&v.mask, len(v.tab); left > 0; i, left = (i+1)&v.mask, left-1 {
		id := v.tab[i]
		if id < 0 {
			return 0, false
		}
		text, ok := v.term(id)
		if !ok {
			return 0, false
		}
		if string(text) == s {
			return id, true
		}
	}
	return 0, false
}

// Len returns the number of terms.
func (v *FrozenVocab) Len() int { return len(v.offs) - 1 }

// Text returns the term text behind an ID, allocating a string (cold
// path: exports, debugging). IDs outside [0, Len) panic via the slice.
func (v *FrozenVocab) Text(id int32) string {
	return string(v.blob[v.offs[id]:v.offs[id+1]])
}

// AppendText appends term id's bytes to dst without allocating a
// string — the export path's way to stream terms out of a mapping.
func (v *FrozenVocab) AppendText(dst []byte, id int32) []byte {
	return append(dst, v.blob[v.offs[id]:v.offs[id+1]]...)
}

// Blob, Offsets and Table expose the backing sections for
// serialization. Callers must treat them as read-only.
func (v *FrozenVocab) Blob() []byte      { return v.blob }
func (v *FrozenVocab) Offsets() []uint32 { return v.offs }
func (v *FrozenVocab) Table() []int32    { return v.tab }

// HashString exposes the vocabulary's string hash so foreign-memory
// pair tables (internal/clickmodel's frozen views) probe with exactly
// the hash the freeze placed entries under.
func HashString(s string) uint64 { return hashString(s) }
