package textproc

// Zero-copy tokenisation and n-gram lookup: the serving read path of
// the micro-browsing model (internal/core.CompiledModel) scores a
// snippet without materialising a single string. Normalisation writes
// into a reusable byte buffer, tokens are recorded as byte spans into
// that buffer, and — because normalisation emits exactly one space
// between tokens — every n-gram window is a contiguous byte slice
// Norm[spans[i].Start:spans[i+n-1].End] that a FrozenVocab can look up
// directly, with a byte-compare collision check instead of a string
// allocation per bigram/trigram.
//
// Hashing is two-level: Tokenize accumulates each token's hash while
// it emits the normalised bytes (so every byte is hashed exactly
// once), and an n-gram window's hash is the mix of its tokens' hashes
// — a handful of multiplies per window instead of re-hashing the
// window bytes for every gram size.

import (
	"unicode"
	"unicode/utf8"
)

// normMap is the ASCII translation table of the fused normalise loop:
// 0 marks a separator, 1 marks a dropped byte (apostrophe), any other
// value is the byte to emit (lower-cased where needed). Every emitted
// byte is >= '$', so the two sentinels cannot collide with output.
const (
	nSep  = 0
	nDrop = 1
)

var normMap [utf8.RuneSelf]byte

func init() {
	for b := 0; b < utf8.RuneSelf; b++ {
		switch {
		case b >= 'a' && b <= 'z' || b >= '0' && b <= '9' || b == '%' || b == '$':
			normMap[b] = byte(b)
		case b >= 'A' && b <= 'Z':
			normMap[b] = byte(b) + 'a' - 'A'
		case b == '\'':
			normMap[b] = nDrop
		default:
			normMap[b] = nSep
		}
	}
}

// NormalizeInto is the allocation-free form of Normalize: it appends
// the normalised text to dst (pass dst[:0] to reuse a buffer) and
// returns the extended slice. string(NormalizeInto(nil, s)) ==
// Normalize(s) for every input; the fuzz suite pins the parity.
//
// ASCII — the overwhelming bulk of ad text — runs through a byte
// loop; only multi-byte runes pay for UTF-8 decoding and the unicode
// tables.
func NormalizeInto(dst []byte, s string) []byte {
	// pending is true when at least one token byte has been written and
	// a separator has been seen since: the single joining space is
	// emitted lazily, so no trailing space needs trimming.
	pending := false
	wrote := false
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			i++
			switch out := normMap[b]; out {
			case nSep:
				pending = wrote
				continue
			case nDrop:
				continue
			default:
				b = out
			}
			if pending {
				dst = append(dst, ' ')
				pending = false
			}
			dst = append(dst, b)
			wrote = true
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			pending = wrote
			continue
		}
		if pending {
			dst = append(dst, ' ')
			pending = false
		}
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		wrote = true
	}
	return dst
}

// TokenSpan locates one normalised token inside a Scratch buffer: the
// token's text is Norm[Start:End] and its 1-based position within the
// line is its index in the span slice plus one. Hash is the token's
// accumulated byte hash, combined per window with ExtendNGramHash.
type TokenSpan struct {
	Start, End int
	Hash       uint64
}

// Scratch is the reusable working storage of the zero-copy path. A
// Scratch is owned by exactly one goroutine at a time (the engine's
// batch workers each hold their own); the zero value is ready to use
// and warms up to steady-state zero allocations after the first few
// lines.
type Scratch struct {
	// Norm holds the current line's normalised bytes (written by
	// Tokenize; valid until the next Tokenize call).
	Norm []byte
	// Spans holds the current line's token boundaries into Norm.
	Spans []TokenSpan
}

// Tokenize normalises line into the scratch buffer — one fused pass:
// byte classing, lower-casing, span bookkeeping and token hashing all
// happen as each byte is emitted — and returns the token spans. The
// returned slice and the bytes it indexes are invalidated by the next
// Tokenize call on the same Scratch.
func (sc *Scratch) Tokenize(line string) []TokenSpan {
	sc.Norm, sc.Spans = appendTokens(sc.Norm[:0], sc.Spans[:0], line)
	return sc.Spans
}

// appendTokens is Tokenize's core as an arena append: it normalises
// line onto the end of norm, appends the token spans (absolute offsets
// into norm) and returns the grown slices. The joining space is only
// emitted between tokens of THIS line — the first token starts flush
// against whatever norm already holds — so n-gram windows can never
// bleed across lines when many lines share one arena
// (CandidateSet) and a single line starting at offset 0 reproduces
// Scratch.Tokenize byte for byte.
func appendTokens(norm []byte, spans []TokenSpan, line string) ([]byte, []TokenSpan) {
	base := len(norm)
	start := -1 // byte offset of the open token, -1 when closed
	th := uint64(hashSeed)
	for i := 0; i < len(line); {
		b := line[i]
		if b < utf8.RuneSelf {
			i++
			switch out := normMap[b]; out {
			case nSep:
				if start >= 0 {
					spans = append(spans, TokenSpan{Start: start, End: len(norm), Hash: th})
					start = -1
				}
				continue
			case nDrop:
				continue
			default:
				b = out
			}
			if start < 0 {
				if len(norm) > base {
					norm = append(norm, ' ')
				}
				start = len(norm)
				th = hashSeed
			}
			norm = append(norm, b)
			th = (th ^ uint64(b)) * hashMult1
			continue
		}
		r, size := utf8.DecodeRuneInString(line[i:])
		i += size
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			if start >= 0 {
				spans = append(spans, TokenSpan{Start: start, End: len(norm), Hash: th})
				start = -1
			}
			continue
		}
		if start < 0 {
			if len(norm) > base {
				norm = append(norm, ' ')
			}
			start = len(norm)
			th = hashSeed
		}
		at := len(norm)
		norm = utf8.AppendRune(norm, unicode.ToLower(r))
		for _, eb := range norm[at:] {
			th = (th ^ uint64(eb)) * hashMult1
		}
	}
	if start >= 0 {
		spans = append(spans, TokenSpan{Start: start, End: len(norm), Hash: th})
	}
	return norm, spans
}

// TermVocab interns term texts to dense int32 IDs: the growable
// builder whose frozen form (FreezeVocab) the serving path looks terms
// up in. Its open-addressed table is keyed by the term's token hashes,
// so the frozen table can resolve an n-gram window — a span slice over
// raw normalised bytes — to its ID without building the string. Hash
// collisions are resolved by linear probing with an exact comparison
// against the interned text, so a colliding probe can never alias two
// distinct terms.
//
// A TermVocab is not safe for concurrent use and has no lookup of its
// own: freeze it to read it.
type TermVocab struct {
	strs  []string
	table []int32 // open-addressed buckets; -1 = empty
	tags  []byte  // hashTag of the hash each bucket was placed under; 0 = empty
	mask  uint64
}

// minVocabTable keeps the probe table at least this many buckets so
// tiny vocabularies still terminate probes quickly.
const minVocabTable = 16

// NewTermVocab returns an empty vocabulary sized for about n terms.
func NewTermVocab(n int) *TermVocab {
	v := &TermVocab{}
	size := minVocabTable
	for size < 2*n {
		size <<= 1
	}
	v.grow(size)
	return v
}

// grow rebuilds the probe table at the given power-of-two size.
func (v *TermVocab) grow(size int) {
	v.table = make([]int32, size)
	for i := range v.table {
		v.table[i] = -1
	}
	v.tags = make([]byte, size)
	v.mask = uint64(size - 1)
	for id, s := range v.strs {
		v.place(hashString(s), int32(id))
	}
}

// place inserts an ID at the first free bucket of its probe chain.
func (v *TermVocab) place(h uint64, id int32) {
	for i := h & v.mask; ; i = (i + 1) & v.mask {
		if v.table[i] < 0 {
			v.table[i] = id
			v.tags[i] = hashTag(h)
			return
		}
	}
}

// Add interns s, returning its dense ID (allocating the next one for
// a string never seen before).
func (v *TermVocab) Add(s string) int32 {
	h := hashString(s)
	for i := h & v.mask; ; i = (i + 1) & v.mask {
		id := v.table[i]
		if id < 0 {
			break
		}
		if v.strs[id] == s {
			return id
		}
	}
	id := int32(len(v.strs))
	v.strs = append(v.strs, s)
	// Keep the load factor under 1/2 so probe chains stay short.
	if 2*len(v.strs) > len(v.table) {
		v.grow(2 * len(v.table))
	} else {
		v.place(h, id)
	}
	return id
}

// NGramHashSeed is the initial value of an n-gram window hash; extend
// it with ExtendNGramHash once per token. The windows starting at one
// token share prefixes, so a caller scanning gram sizes 1..n extends
// a single running hash instead of recombining each window.
const NGramHashSeed uint64 = hashSeed

// ExtendNGramHash folds the next token's hash (TokenSpan.Hash) into a
// running n-gram window hash.
func ExtendNGramHash(h, tokenHash uint64) uint64 {
	h = (h ^ tokenHash) * hashMult2
	return h ^ h>>31
}

// Len returns the number of interned terms.
func (v *TermVocab) Len() int { return len(v.strs) }

// Text returns the term text behind an ID. IDs come from Add, so
// out-of-range values are programmer errors and panic via the slice.
func (v *TermVocab) Text(id int32) string { return v.strs[id] }

// Hash constants: 64-bit avalanche multipliers (golden-ratio and
// xxhash-flavoured). The scheme is two-level — a multiply-xor
// accumulator per token byte, a multiply-xor mix per token of a
// window — chosen for throughput over cryptographic quality; any
// distribution weakness is covered by the byte-compare collision
// check on every probe.
const (
	hashSeed  = 0x9e3779b97f4a7c15
	hashMult1 = 0x9e3779b185ebca87
	hashMult2 = 0xc2b2ae3d27d4eb4f
)

// hashString hashes a space-joined term string exactly as Tokenize and
// ExtendNGramHash hash the equivalent token window: the table is built
// from strings and probed with windows, so the two forms must agree
// byte for byte.
func hashString(s string) uint64 {
	h := uint64(hashSeed)
	th := uint64(hashSeed)
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b == ' ' {
			h = (h ^ th) * hashMult2
			h ^= h >> 31
			th = hashSeed
			continue
		}
		th = (th ^ uint64(b)) * hashMult1
	}
	h = (h ^ th) * hashMult2
	h ^= h >> 31
	return h
}

// hashBytes is hashString over a byte slice, duplicated so neither
// form allocates a conversion.
func hashBytes(b []byte) uint64 {
	h := uint64(hashSeed)
	th := uint64(hashSeed)
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c == ' ' {
			h = (h ^ th) * hashMult2
			h ^= h >> 31
			th = hashSeed
			continue
		}
		th = (th ^ uint64(c)) * hashMult1
	}
	h = (h ^ th) * hashMult2
	h ^= h >> 31
	return h
}
