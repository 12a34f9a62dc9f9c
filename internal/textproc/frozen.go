package textproc

// FrozenVocab is the vocabulary: a list of terms in, an immutable flat
// table out. Term texts live in one contiguous byte blob indexed by an
// offsets array, the open-addressed probe table is a plain []int32, and
// one tag byte per probe bucket summarises it — four slices with no
// interior pointers, so a frozen vocabulary can be serialized as raw
// sections and reconstituted over foreign memory (a read-only file
// mapping) without touching a single term. This is the classic
// flat-language-model layout: the on-disk bytes ARE the lookup
// structure, and N processes mapping the same artifact share one page
// cache copy.
//
// There is one builder, FreezeVocab, and one placement, place — hashTerm
// of the term, linear probe, IDs in order — so the table and the tags
// are a function of the terms, the table's size and this build's hash
// scheme, and ReadSections re-places a vocabulary another scheme placed.
// The table is keyed by the term's token hashes, so a lookup resolves an
// n-gram window — a span over raw normalised bytes — to its ID without
// building the string. The lookup does not walk the table: it walks the
// tags, eight buckets per step, and opens the table, the offsets and the
// blob only for a bucket whose tag matches the probed hash. The snippet
// scorer looks up every 1..3-gram window and few of them are terms, so
// the common lookup is a miss, and a miss is one load from an array an
// eighth the size of the table. The byte compare against the term text
// is still the only thing that can say "hit": corrupt tags or a corrupt
// table can only cause misses, never alias two distinct terms.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math/bits"

	"repro/internal/snapshot"
)

// FrozenVocab is built by FreezeVocab (from a list of distinct terms),
// ReadSections (over a mapped artifact) or NewFrozenVocab (over three
// foreign sections, deriving the fourth). It is immutable and safe for
// concurrent use. When the backing slices view a file mapping, the
// mapping must outlive the vocabulary — the engine's refcounted
// version table enforces this for serving.
type FrozenVocab struct {
	blob []byte
	offs []uint32 // len n+1; term i is blob[offs[i]:offs[i+1]]
	tab  []int32  // open-addressed probe table; -1 = empty
	tags []byte   // len(tab)+tagStep; tags[i] summarises tab[i], 0 = empty
	mask uint64
}

// tagStep is how many buckets one probe step covers: the tags are read
// eight at a time as one little-endian uint64. The tag array carries
// tagStep extra bytes repeating its first tagStep, so a step starting at
// any bucket reads on past the end of the table instead of wrapping.
const tagStep = 8

// SWAR constants: the low and the high bit of every byte of a word.
const (
	swarLo = 0x0101010101010101
	swarHi = 0x8080808080808080
)

// hashTag is the tag of a bucket holding a term placed under hash h: a
// non-zero byte from the hash's high bits (the bucket index uses the
// low bits, so terms sharing a probe chain still differ in tag).
func hashTag(h uint64) byte { return byte(h>>56) | 1 }

// zeroBytes sets the high bit of the lowest zero byte of w; bits above
// it are only ever set in the high bit of a byte that is zero or 0x01.
// Callers use the lowest set bit as exact and treat the rest as
// candidates.
func zeroBytes(w uint64) uint64 { return (w - swarLo) & ^w & swarHi }

// Vocab is the growable vocabulary: it interns strings to dense int32
// IDs in first-seen order, so FreezeVocab(v.Texts()) freezes it with
// every ID kept. The zero value is ready to use; it is not safe for
// concurrent mutation.
type Vocab struct {
	texts []string
	ids   map[string]int32
}

// ID returns the ID of s, interning it if new.
func (v *Vocab) ID(s string) int32 {
	if id, ok := v.ids[s]; ok {
		return id
	}
	if v.ids == nil {
		v.ids = make(map[string]int32)
	}
	id := int32(len(v.texts))
	v.texts = append(v.texts, s)
	v.ids[s] = id
	return id
}

// Lookup returns the ID of s without interning it.
func (v *Vocab) Lookup(s string) (int32, bool) {
	id, ok := v.ids[s]
	return id, ok
}

// LookupBytes is Lookup of string(b), without building the string.
//
//mb:noalloc
func (v *Vocab) LookupBytes(b []byte) (int32, bool) {
	id, ok := v.ids[string(b)]
	return id, ok
}

// Text returns the string of id.
func (v *Vocab) Text(id int32) string { return v.texts[id] }

// Texts lists the interned strings by ID; the slice is the vocabulary's
// own.
func (v *Vocab) Texts() []string { return v.texts }

// Len returns the number of interned strings.
func (v *Vocab) Len() int { return len(v.texts) }

// Reset forgets every string and keeps the storage.
func (v *Vocab) Reset() {
	clear(v.ids)
	clear(v.texts)
	v.texts = v.texts[:0]
}

// FreezeVocab builds the vocabulary of terms, which must be distinct:
// term i gets ID i, the texts are copied into one blob, and the probe
// table is the smallest power of two holding them at load factor 1/2.
func FreezeVocab(terms []string) *FrozenVocab {
	v := &FrozenVocab{}
	v.blob, v.offs = packTerms(terms)
	size := minVocabTable
	for size < 2*len(terms) {
		size <<= 1
	}
	v.place(size)
	return v
}

// packTerms lays terms out as a vocabulary's first two sections hold
// them: their bytes in one blob, and len(terms)+1 offsets, term i being
// blob[offs[i]:offs[i+1]].
func packTerms(terms []string) ([]byte, []uint32) {
	total := 0
	for _, s := range terms {
		total += len(s)
	}
	blob, offs := make([]byte, 0, total), make([]uint32, len(terms)+1)
	for i, s := range terms {
		offs[i] = uint32(len(blob))
		blob = append(blob, s...)
	}
	offs[len(terms)] = uint32(len(blob))
	return blob, offs
}

// checkOffs is the O(1) check of a blob and its offsets: there is at
// least one offset, the first is 0 and the last is the blob's length.
func checkOffs(blob []byte, offs []uint32) error {
	if len(offs) == 0 {
		return errors.New("textproc: frozen vocab needs an offsets array")
	}
	if n := len(offs) - 1; offs[0] != 0 || uint32(len(blob)) != offs[n] {
		return fmt.Errorf("textproc: frozen vocab offsets cover [%d,%d) but blob holds %d bytes", offs[0], offs[n], len(blob))
	}
	return nil
}

// newFrozenVocab wraps four pre-built sections — views into a mapped
// artifact — after O(1) structural checks: offsets bracketing the blob,
// a power-of-two probe table large enough for the term count, and one
// tag per bucket plus the mirrored tail. Per-element invariants
// (monotone offsets, in-range bucket IDs, tags agreeing with the table)
// are NOT checked here — that would make every mapped load O(size) and
// defeat the zero-parse layout; Validate runs them on demand for loads
// of untrusted bytes.
//
// What a bad tag that was never validated can do: a zero over an
// occupied bucket ends the probe chain there, so that term and the
// ones placed after it on the chain read as misses; a non-zero tag over
// an empty bucket is passed over when the table says id < 0, and the
// chain is walked further than it had to be; a tag array with no zero
// anywhere ends every absent term's lookup in a miss after len(tab)
// buckets. What it cannot do: every load is bounds-checked against
// slices whose lengths the constructor tied together, the probe gives
// up after one pass over the table, and only the byte compare says
// "hit" — so no aliased terms, no panic, no endless probe and no read
// outside the mapping.
func newFrozenVocab(blob []byte, offs []uint32, tab []int32, tags []byte) (*FrozenVocab, error) {
	if err := checkOffs(blob, offs); err != nil {
		return nil, err
	}
	n := len(offs) - 1
	if len(tab) < minVocabTable || bits.OnesCount(uint(len(tab))) != 1 {
		return nil, fmt.Errorf("textproc: frozen vocab probe table size %d is not a power of two >= %d", len(tab), minVocabTable)
	}
	if len(tab) < 2*n {
		return nil, fmt.Errorf("textproc: frozen vocab probe table (%d buckets) cannot hold %d terms at load factor 1/2", len(tab), n)
	}
	if len(tags) != len(tab)+tagStep {
		return nil, fmt.Errorf("textproc: frozen vocab has %d tags for %d buckets, want %d", len(tags), len(tab), len(tab)+tagStep)
	}
	return &FrozenVocab{blob: blob, offs: offs, tab: tab, tags: tags, mask: uint64(len(tab) - 1)}, nil
}

// NewFrozenVocab wraps three pre-built sections and derives the tags
// from them, hashing every placed term once: the O(n) form, for callers
// that hold a table this build placed and no tag section.
// The tag array is allocated on the heap; the other three stay views.
// The trust split is newFrozenVocab's: the same O(1) checks here,
// Validate for the rest.
func NewFrozenVocab(blob []byte, offs []uint32, tab []int32) (*FrozenVocab, error) {
	v, err := newFrozenVocab(blob, offs, tab, make([]byte, len(tab)+tagStep))
	if err != nil {
		return nil, err
	}
	for i, id := range tab {
		if id >= 0 {
			text, _ := v.term(id) // a corrupt ID hashes as the empty term: occupied, never matched
			v.tags[i] = hashTag(hashTerm(text))
		}
	}
	copy(v.tags[len(tab):], v.tags)
	return v, nil
}

// place builds the probe table, size buckets, and its tags on the heap
// from the terms alone, under this build's hash: IDs in order, each at
// the first free bucket of its chain (size is at least twice the term
// count, so there is one). It is the only placement there is: what
// FreezeVocab writes is what ReadSections rebuilds.
func (v *FrozenVocab) place(size int) {
	tab, tags := make([]int32, size), make([]byte, size+tagStep)
	for i := range tab {
		tab[i] = -1
	}
	mask := uint64(size - 1)
	for id := range v.Len() {
		text, _ := v.term(int32(id)) // corrupt offsets place the empty term: occupied, never matched
		h := hashTerm(text)
		i := h & mask
		for tab[i] >= 0 {
			i = (i + 1) & mask
		}
		tab[i], tags[i] = int32(id), hashTag(h)
	}
	copy(tags[size:], tags)
	v.tab, v.tags, v.mask = tab, tags, mask
}

// Section suffixes of a vocabulary inside a v2 artifact; the prefix
// ("v", "q", "d") names which vocabulary of the model it is. The first
// two are the terms (WriteTerms, ReadTerms); a FrozenVocab adds its
// lookup, the last two.
const (
	secBlob = ".blob" // bytes   term bytes
	secOffs = ".offs" // uint32  term offsets (n+1)
	secTabl = ".tabl" // int32   open-addressed probe table
	secTags = ".tags" // bytes   one tag per bucket + tagStep mirrored
)

// writeTerms adds the two term sections, blob and offs, under prefix.
func writeTerms(w *snapshot.V2Writer, prefix string, blob []byte, offs []uint32) {
	w.Bytes(prefix+secBlob, blob)
	w.Uint32s(prefix+secOffs, offs)
}

// readTerms views the two term sections under prefix, unchecked.
func readTerms(a *snapshot.V2Artifact, prefix string) ([]byte, []uint32, error) {
	blob, err := a.BytesView(prefix + secBlob)
	if err != nil {
		return nil, nil, err
	}
	offs, err := a.Uint32sView(prefix + secOffs)
	if err != nil {
		return nil, nil, err
	}
	return blob, offs, nil
}

// WriteTerms adds terms under prefix as the two sections every
// vocabulary begins with, blob and offs: the bytes FreezeVocab(terms)
// writes first, without the lookup. It is the form for a reader that
// needs each term's text by ID and never looks one up (ReadTerms).
func WriteTerms(w *snapshot.V2Writer, prefix string, terms []string) {
	blob, offs := packTerms(terms)
	writeTerms(w, prefix, blob, offs)
}

// ReadTerms reads the two term sections under prefix — WriteTerms', or
// the first two of a FrozenVocab's — as the list of terms by ID. Every
// term is a substring of one string copied from the blob, so the list
// keeps no reference to the artifact. Offsets that do not start at 0,
// decrease or do not end at the blob's length are snapshot.ErrCorrupt.
func ReadTerms(a *snapshot.V2Artifact, prefix string) ([]string, error) {
	blob, offs, err := readTerms(a, prefix)
	if err != nil {
		return nil, err
	}
	if err := checkOffs(blob, offs); err != nil {
		return nil, fmt.Errorf("%w: %q: %v", snapshot.ErrCorrupt, prefix, err)
	}
	all := string(blob)
	terms := make([]string, len(offs)-1)
	for i := range terms {
		lo, hi := offs[i], offs[i+1]
		if lo > hi || int(hi) > len(all) { // the offsets decrease here or further on
			return nil, fmt.Errorf("%w: %q: term %d spans [%d,%d) of a %d-byte blob", snapshot.ErrCorrupt, prefix, i, lo, hi, len(all))
		}
		terms[i] = all[lo:hi]
	}
	return terms, nil
}

// WriteSections adds the vocabulary's four sections to a v2 writer
// under the given prefix: its terms, then its probe table and tags.
func (v *FrozenVocab) WriteSections(w *snapshot.V2Writer, prefix string) {
	writeTerms(w, prefix, v.blob, v.offs)
	w.Int32s(prefix+secTabl, v.tab)
	w.Bytes(prefix+secTags, v.tags)
}

// ReadSections wraps the vocabulary stored under prefix as zero-copy
// views, in O(1): no term is touched but term 0, which must look itself
// up as ID 0. The table and the tags only mean something under the hash
// scheme that placed them; a table from a build with another one would
// otherwise load cleanly and score every term as unknown. When term 0
// is not found — or there is no tag section, which only an artifact
// older than the tags lacks — place rebuilds both on the heap, O(n), and
// the log says so: blob, offs and everything keyed by ID are unaffected,
// and WriteSections then emits the rebuilt sections (clickmodelfit
// -conv). Structurally unsound sections are snapshot.ErrCorrupt.
func ReadSections(a *snapshot.V2Artifact, prefix string) (*FrozenVocab, error) {
	blob, offs, err := readTerms(a, prefix)
	if err != nil {
		return nil, err
	}
	tab, err := a.Int32sView(prefix + secTabl)
	if err != nil {
		return nil, err
	}
	var tags []byte
	if _, tagged := a.Section(prefix + secTags); !tagged {
		tags = make([]byte, len(tab)+tagStep) // every lookup misses until place
	} else if tags, err = a.BytesView(prefix + secTags); err != nil {
		return nil, err
	}
	v, err := newFrozenVocab(blob, offs, tab, tags)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	if v.Len() > 0 {
		text, _ := v.term(0)
		if id, ok := v.LookupHashed(hashTerm(text), text); !ok || id != 0 {
			v.place(len(v.tab))
			log.Printf("textproc: vocabulary %q (%d terms) was placed under another build's hash scheme: probe table rebuilt on the heap, as it will be on every load; re-export the artifact (clickmodelfit -conv) so that a load rebuilds nothing", prefix, v.Len())
		}
	}
	return v, nil
}

// Validate runs the O(n) per-element checks the constructors skip:
// monotone offsets covering the blob, every probe bucket either empty
// or a valid term ID, and the tags agreeing with the table — a zero tag
// exactly over the empty buckets, the tail repeating the head. Verified
// load paths (artifacts arriving over the network or flagged untrusted)
// call this once before install; trusted local loads skip it and rely
// on the lookup loop's own bounds checks. Hash placement and tag values
// are still not verified — a misplaced or mistagged entry can only
// cause misses.
func (v *FrozenVocab) Validate() error {
	n := v.Len()
	for i := 0; i < n; i++ {
		if v.offs[i] > v.offs[i+1] {
			return fmt.Errorf("textproc: frozen vocab offset %d decreases (%d -> %d)", i, v.offs[i], v.offs[i+1])
		}
	}
	if len(v.tags) != len(v.tab)+tagStep {
		return fmt.Errorf("textproc: frozen vocab has %d tags for %d buckets", len(v.tags), len(v.tab))
	}
	for i, id := range v.tab {
		if id < -1 || int(id) >= n {
			return fmt.Errorf("textproc: frozen vocab bucket %d holds id %d of %d terms", i, id, n)
		}
		if (v.tags[i] == 0) != (id < 0) {
			return fmt.Errorf("textproc: frozen vocab bucket %d holds id %d under tag %#02x", i, id, v.tags[i])
		}
	}
	if string(v.tags[len(v.tab):]) != string(v.tags[:tagStep]) {
		return errors.New("textproc: frozen vocab tag tail does not repeat its head")
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

// probe is the one lookup: key's ID if a bucket on h's probe chain
// holds it. Each step loads tagStep tags, finds the chain's end (the
// first empty tag), and reads the table, the offsets and the blob only
// for buckets below it whose tag equals h's.
//
// The probe is bounded by the table length: a well-formed table always
// has an empty bucket to stop at, but an unvalidated one may have none,
// and a full table of valid IDs must end in a miss, not a spin.
//
//mb:noalloc
func probe[K string | []byte](v *FrozenVocab, h uint64, key K) (int32, bool) {
	want := uint64(hashTag(h)) * swarLo
	i := h & v.mask
	for left := len(v.tab); left > 0; left -= tagStep {
		w := binary.LittleEndian.Uint64(v.tags[i : i+tagStep])
		empty := zeroBytes(w)
		// Matches above the first empty tag belong to other chains.
		match := zeroBytes(w^want) & (empty - 1) & ^empty
		for ; match != 0; match &= match - 1 {
			id := v.tab[(i+uint64(bits.TrailingZeros64(match)>>3))&v.mask]
			if id < 0 {
				continue
			}
			if text, ok := v.term(id); ok && string(text) == string(key) { //mb:allocok comparison-only conversions
				return id, true
			}
		}
		if empty != 0 {
			return 0, false
		}
		i = (i + tagStep) & v.mask
	}
	return 0, false
}

// LookupHashed resolves a normalised byte window whose hash the caller
// built with NGramHashSeed/ExtendNGramHash — the hot call of the
// compiled scoring path.
//
//mb:noalloc
func (v *FrozenVocab) LookupHashed(h uint64, b []byte) (int32, bool) { return probe(v, h, b) }

// Len returns the number of terms.
func (v *FrozenVocab) Len() int { return len(v.offs) - 1 }
