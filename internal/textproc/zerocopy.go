package textproc

// Zero-copy tokenisation and n-gram lookup: appendTokens is the one
// tokeniser — ExtractTerms, the compiled scorer and the learner's fold
// cut terms from Scratch.Tokenize's spans, CandidateSet appends lines
// into its arena through it — and the serving read path of the
// micro-browsing model (internal/core.CompiledModel) scores a snippet
// without materialising a single string. Normalisation writes
// into a reusable byte buffer, tokens are recorded as byte spans into
// that buffer, and — because normalisation emits exactly one space
// between tokens — every n-gram window is a contiguous byte slice
// Norm[spans[i].Start:spans[i+n-1].End] that a FrozenVocab can look up
// directly, with a byte-compare collision check instead of a string
// allocation per bigram/trigram.
//
// Hashing is two-level: a token's hash is hashToken of its bytes, eight
// per multiply, computed once as the token is emitted, and an n-gram
// window's hash is the mix of its tokens' hashes (ExtendNGramHash) — a
// handful of multiplies per window instead of re-hashing the window
// bytes for every gram size. The normalisation rules are stated twice:
// NormalizeInto is the reference, a byte or rune per step, and
// classBlock restates the ASCII half as range tests over eight bytes at
// a time; FuzzTokenize holds the two together.

import (
	"encoding/binary"
	"math/bits"
	"slices"
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
// line is its index in the span slice plus one. Hash is hashToken of the
// token's bytes, combined per window with ExtendNGramHash.
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

// Tokenize normalises line into the scratch buffer and returns the
// token spans. The returned slice and the bytes it indexes are
// invalidated by the next Tokenize call on the same Scratch.
func (sc *Scratch) Tokenize(line string) []TokenSpan {
	sc.Norm, sc.Spans = appendTokens(sc.Norm[:0], sc.Spans[:0], line)
	return sc.Spans
}

// tokBlock is how many bytes of a line appendTokens classes before it
// cuts tokens from them: one bit of a uint64 per byte.
const tokBlock = 64

// toLower lower-cases every letter of a word of token bytes and changes
// none of the others: they have the bit set already.
const toLower = 0x20 * swarLo

// swarRange sets the high bit of every byte of w in [lo, hi], given that
// w's bytes are below 0x80 (the result's other bits are noise):
// b+(0x80-lo) reaches bit 7 iff b >= lo, b+(0x7f-hi) iff b > hi.
func swarRange(w uint64, lo, hi byte) uint64 {
	return (w + uint64(0x80-lo)*swarLo) ^ (w + uint64(0x7f-hi)*swarLo)
}

// moveMask gathers the high bit of each byte of w into the low eight
// bits of the result, byte 0 first.
func moveMask(w uint64) uint64 { return (w & swarHi) * 0x0002040810204081 >> 56 }

// classBlock classes the n <= tokBlock bytes of line from i, a word at
// a time, by normMap's rule stated as range tests: letters (after
// toLower), digits and "$%" are token bytes, the apostrophe is dropped,
// every other ASCII byte separates. Bit j of runs is set when byte i+j
// belongs to a token; bit j of odd, a subset of runs, when it is an
// apostrophe or not ASCII — a byte that cannot be copied as it stands.
// A word reaching past the end of the line (which has eight bytes) is
// loaded to end with it and shifted down: the rest reads as NUL.
func classBlock(line string, i, n int) (runs, odd uint64) {
	for k := 0; k < n; k += 8 {
		var w uint64
		if k+8 <= n {
			w = le64(line[i+k : i+k+8])
		} else {
			w = le64(line[len(line)-8:]) >> (8 * uint(8-n+k) & 63)
		}
		a := w &^ swarHi // the range tests hold below 0x80; a byte at or above it counts through w
		o := swarRange(a, '\'', '\'') | w
		runs |= moveMask(swarRange(a|toLower, 'a', 'z')|swarRange(a, '0', '9')|swarRange(a, '$', '%')|o) << (uint(k) & 63)
		odd |= moveMask(o) << (uint(k) & 63)
	}
	return runs, odd
}

// appendTokens is Tokenize's core as an arena append: it normalises
// line onto the end of norm, appends the token spans (absolute offsets
// into norm) and returns the grown slices. The joining space is only
// emitted between tokens of THIS line — the first token starts flush
// against whatever norm already holds — so n-gram windows can never
// bleed across lines when many lines share one arena
// (CandidateSet) and a single line starting at offset 0 reproduces
// Scratch.Tokenize byte for byte.
//
// The line is taken a block at a time with no per-byte branch: tokens
// are cut from classBlock's bitmap. A run of plain token bytes is one
// token, copied a word at a time into capacity reserved for the whole
// line and hashed as it is copied (hashToken, unrolled); a run with an
// odd byte is appendTokensRef's, and the line carries on after it. A
// run cut by the end of the block starts the next block; one that fills
// a block takes the rest of the line with it, and so does a line too
// short to load a word from.
//
//mb:noalloc
func appendTokens(norm []byte, spans []TokenSpan, line string) ([]byte, []TokenSpan) {
	base := len(norm)
	if len(line) < 8 {
		return appendTokensRef(norm, spans, base, line)
	}
	// Plain runs never normalise to more bytes than they had; eight more
	// let a token's last word be stored whole. norm is open to its
	// capacity from here on, and p is its length.
	norm = slices.Grow(norm, len(line)+8) //mb:allocok capacity miss: the arena grows to the line, then is reused
	norm = norm[:cap(norm)]
	p, sep := base, 0 // sep is 1 once the line has a token: the joining space before the next
	for i := 0; i < len(line); {
		n := min(len(line)-i, tokBlock)
		runs, odd := classBlock(line, i, n)
		if runs>>63 != 0 && i+tokBlock < len(line) {
			n = tokBlock - bits.LeadingZeros64(^runs)
			if n == 0 {
				return appendTokensRef(norm[:p], spans, base, line[i:])
			}
			runs &= 1<<n - 1
		}
		for runs != 0 {
			// Adding its lowest bit to the bitmap carries through the
			// lowest run: the run's bits clear and the bit after it sets.
			past := runs + runs&-runs
			at := i + bits.TrailingZeros64(runs)
			left := i + bits.TrailingZeros64(past) - at
			run := runs &^ past
			runs = past & (past - 1)
			if odd&run != 0 {
				norm, spans = appendTokensRef(norm[:p], spans, base, line[at:at+left])
				norm = slices.Grow(norm, len(line)-at-left+8) //mb:allocok as above: a rune may lower-case to a longer one
				p, sep = len(norm), min(len(norm)-base, 1)
				norm = norm[:cap(norm)]
				continue
			}
			norm[p] = ' ' // overwritten by the token when it is the line's first
			start := p + sep
			q, h := start, hashSeed^uint64(left)
			for ; left > 8; left, at, q = left-8, at+8, q+8 {
				w := le64(line[at:at+8]) | toLower
				binary.LittleEndian.PutUint64(norm[q:q+8], w)
				h = hashWord(h, w)
			}
			from := min(at, len(line)-8) // the line's last word, as classBlock loads it
			w := le64(line[from:from+8])>>(8*uint(at-from)&63) | toLower
			binary.LittleEndian.PutUint64(norm[q:q+8], w)
			h = hashWord(h, w&(^uint64(0)>>((64-8*uint(left))&63)))
			spans = append(spans, TokenSpan{Start: start, End: q + left, Hash: h})
			p, sep = q+left, 1
		}
		i += n
	}
	return norm[:p], spans
}

// appendTokensRef is appendTokens by way of the reference. While text is
// one ASCII token with apostrophes to drop — what most odd runs are —
// its normal form is written through normMap; from the first byte that
// is anything else NormalizeInto writes it, and it is cut at its spaces.
// text is a piece of the line bounded by separators, so all it needs
// from before is whether a token precedes it (the joining space).
func appendTokensRef(norm []byte, spans []TokenSpan, base int, text string) ([]byte, []TokenSpan) {
	end := len(norm)
	if end > base {
		norm = append(norm, ' ')
	}
	start, scan := len(norm), -1 // scan is where the spaces may begin: nowhere in what the loop below wrote
	for i := 0; i < len(text) && scan < 0; i++ {
		switch b := text[i]; {
		case b >= utf8.RuneSelf || normMap[b] == nSep:
			norm, scan = NormalizeInto(norm[:start], text), start
		case normMap[b] != nDrop:
			norm = append(norm, normMap[b])
		}
	}
	if len(norm) == start {
		return norm[:end], spans
	}
	if scan < 0 {
		scan = len(norm)
	}
	for i := scan; i <= len(norm); i++ {
		if i == len(norm) || norm[i] == ' ' {
			spans = append(spans, TokenSpan{Start: start, End: i, Hash: hashToken(norm[start:i])})
			start = i + 1
		}
	}
	return norm, spans
}

// minVocabTable keeps the probe table at least this many buckets so
// tiny vocabularies still terminate probes quickly.
const minVocabTable = 16

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

// Hash constants: 64-bit avalanche multipliers (golden-ratio and
// xxhash-flavoured). The scheme is two-level — hashToken over a token's
// bytes, ExtendNGramHash over the tokens of a window — chosen for
// throughput over cryptographic quality; any distribution weakness is
// covered by the byte-compare collision check on every probe. It only
// decides where a term is placed: artifacts carry it in .tabl and .tags,
// ReadSections re-places a vocabulary another scheme placed, and
// TestHashTokenPinned names a change of scheme that was not meant.
const (
	hashSeed  = 0x9e3779b97f4a7c15
	hashMult1 = 0x9e3779b185ebca87
	hashMult2 = 0xc2b2ae3d27d4eb4f
)

// hashWord folds eight token bytes into a running token hash. Xorshift
// distances from 24 to 40 spread a vocabulary alike; under 26
// TestHashPlacementQuality's is placed no worse than the parent's was.
func hashWord(h, w uint64) uint64 {
	h = (h ^ w) * hashMult1
	return h ^ h>>26
}

// hashToken is the definition of a token's hash (TokenSpan.Hash): the
// length in the seed, then one hashWord per eight bytes, little-endian,
// the last word zero-padded. appendTokens unrolls it over what it copies.
func hashToken[K string | []byte](t K) uint64 {
	h := hashSeed ^ uint64(len(t))
	for ; len(t) > 8; t = t[8:] {
		h = hashWord(h, le64(t))
	}
	var w uint64
	for j := len(t) - 1; j >= 0; j-- {
		w = w<<8 | uint64(t[j])
	}
	return hashWord(h, w)
}

// hashTerm hashes a space-joined term exactly as Tokenize and
// ExtendNGramHash hash the equivalent token window: the table is built
// from strings and probed with windows, and both go through hashToken.
func hashTerm[K string | []byte](t K) uint64 {
	h := NGramHashSeed
	for start, i := 0, 0; i <= len(t); i++ {
		if i == len(t) || t[i] == ' ' {
			h = ExtendNGramHash(h, hashToken(t[start:i]))
			start = i + 1
		}
	}
	return h
}
