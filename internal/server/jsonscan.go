package server

// The JSON scanner under the hand-written body codecs: the syntax of a
// document — whitespace, containers, keys, strings, integers, literals —
// and nothing of any route's shape. A route is a field table plus a walk
// over it (scorejson.go, feedback.go) that calls down into this file.
//
// The contract is encoding/json's, which stays on as the oracle in this
// package's tests: keys match case-insensitively, null is a no-op, \u
// escapes and surrogate pairs decode, invalid UTF-8 becomes U+FFFD,
// integers are integer literals only, an unknown key is an error — with
// two deliberate tightenings: only whitespace may follow the value, and
// a key may appear once per object.
//
// Strings without escapes are views of the body buffer; strings with
// escapes or invalid UTF-8 are unescaped into a side arena. Both belong
// to whoever owns the scanner: a string that must outlive the buffers is
// copied out first.

import (
	"encoding/binary"
	"math"
	"math/bits"
	"net/http"
	"unicode/utf16"
	"unicode/utf8"
)

// scanner is a cursor over one JSON body.
type scanner struct {
	body []byte
	pos  int
	esc  []byte

	// status is 0 while the scan is healthy, else the HTTP status of
	// the failure errMsg describes (errPos: where the scan stopped).
	status int
	errMsg string
	errPos int
}

const (
	litNull  = "null"
	litTrue  = "true"
	litFalse = "false"
)

// plain marks the bytes a string scan passes over without a second
// look: printable ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// stops marks, in the high bit of each byte lane of x, the bytes plain
// does not pass: the quote, the backslash, control bytes below 0x20 and
// every byte from 0x80 up. The lowest marked lane is exact; a lane above
// a marked one may be marked without reason (a borrow out of a true
// mark), which a caller that stops at the first mark never looks at.
func stops(x uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	quote := x ^ (ones * '"')
	slash := x ^ (ones * '\\')
	return ((quote-ones)&^quote | (slash-ones)&^slash | (x-ones*' ')&^x | x) & highs
}

// fail records the first failure of a scan — a 400: the document is not
// what the route accepts — and returns false, so scanning code reads
// `return s.fail(...)`. stop is fail with another status, for a limit
// the document ran into.
func (s *scanner) fail(msg string) bool { return s.stop(http.StatusBadRequest, msg) }

func (s *scanner) stop(status int, msg string) bool {
	if s.status == 0 {
		s.status, s.errMsg, s.errPos = status, msg, s.pos
	}
	return false
}

// begin resets the scanner for a scan of s.body.
func (s *scanner) begin() {
	s.pos, s.esc = 0, s.esc[:0]
	s.status, s.errMsg, s.errPos = 0, "", 0
	s.ws()
}

// end checks that only whitespace follows the top-level value.
func (s *scanner) end() bool {
	s.ws()
	if s.pos != len(s.body) {
		return s.fail("unexpected data after the JSON value")
	}
	return true
}

func (s *scanner) ws() {
	for s.pos < len(s.body) {
		switch s.body[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// peek is the byte under the cursor, 0 at the end of the body — which
// no JSON token starts with, so every caller's default case takes it.
func (s *scanner) peek() byte {
	if s.pos < len(s.body) {
		return s.body[s.pos]
	}
	return 0
}

// lit consumes the literal at the cursor if it is there. Callers reach
// it through the literal's first byte (null, or a switch on peek), so a
// value that is not a literal costs one byte compare.
func (s *scanner) lit(word string) bool {
	if end := s.pos + len(word); end <= len(s.body) && string(s.body[s.pos:end]) == word {
		s.pos = end
		return true
	}
	return false
}

// null consumes a null literal at the cursor if one is there.
func (s *scanner) null() bool { return s.peek() == 'n' && s.lit(litNull) }

// enter steps over the opening bracket under the cursor and reports
// whether the container closes right away (closer consumed too).
func (s *scanner) enter(closer byte) (empty bool) {
	s.pos++
	s.ws()
	if s.peek() == closer {
		s.pos++
		return true
	}
	return false
}

// more steps over what follows a member: a comma (another member
// follows) or the container's closer.
func (s *scanner) more(closer byte) (more, ok bool) {
	s.ws()
	switch s.peek() {
	case ',':
		s.pos++
		s.ws()
		return true, true
	case closer:
		s.pos++
		return false, true
	}
	return false, s.fail("expected ',' or the end of the object or array")
}

// object walks the value under the cursor as an object of the given
// fields (or null: an object without members), calling member with the
// field each key names and the cursor on its value.
func (s *scanner) object(fields []string, what string, member func(f int) bool) bool {
	if s.null() {
		return true
	}
	if s.peek() != '{' {
		return s.fail(what)
	}
	if s.enter('}') {
		return true
	}
	var seen uint
	for {
		f, ok := s.key(fields, &seen)
		if !ok || !member(f) {
			return false
		}
		if more, ok := s.more('}'); !more {
			return ok
		}
	}
}

// array is object for an array (or null): elem is called with the
// cursor on each element.
func (s *scanner) array(what string, elem func() bool) bool {
	if s.null() {
		return true
	}
	if s.peek() != '[' {
		return s.fail(what)
	}
	if s.enter(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if more, ok := s.more(']'); !more {
			return ok
		}
	}
}

// key scans `"name" :` and resolves name against fields the way
// encoding/json does, case-insensitively, then rejects unknown names
// and names already seen in this object.
func (s *scanner) key(fields []string, seen *uint) (int, bool) {
	if s.peek() != '"' {
		return 0, s.fail("expected an object key")
	}
	at := s.pos
	name, ok := s.str()
	if !ok {
		return 0, false
	}
	// The exact pass encoding/json makes first, then the folded one. No
	// two fields of one shape are equal under folding, so the two passes
	// cannot pick different fields; the first answers every key a client
	// spells as the field is named, with a compare per field.
	f := -1
	for i, want := range fields {
		if string(name) == want {
			f = i
			break
		}
	}
	for i := 0; f < 0 && i < len(fields); i++ {
		if foldsTo(name, fields[i]) {
			f = i
		}
	}
	switch {
	case f < 0:
		s.pos = at
		return 0, s.fail("unknown field")
	case *seen&(1<<f) != 0:
		s.pos = at
		return 0, s.fail("duplicate key")
	}
	*seen |= 1 << f
	s.ws()
	if s.peek() != ':' {
		return 0, s.fail("expected ':' after the object key")
	}
	s.pos++
	s.ws()
	return f, true
}

// foldsTo reports whether key equals name — a field name, lower-case
// ASCII — under the Unicode simple case folding encoding/json matches
// keys with. For such a name that is ASCII case-insensitivity plus the
// two letters outside ASCII that fold into it: U+017F (long s) to s and
// U+212A (the Kelvin sign) to k.
func foldsTo(key []byte, name string) bool {
	for i := 0; i < len(name); i++ {
		if len(key) == 0 {
			return false
		}
		ch, size := key[0], 1
		switch {
		case 'A' <= ch && ch <= 'Z':
			ch += 'a' - 'A'
		case ch >= utf8.RuneSelf:
			var r rune
			switch r, size = utf8.DecodeRune(key); r {
			case '\u017f':
				ch = 's'
			case '\u212a':
				ch = 'k'
			}
		}
		if ch != name[i] {
			return false
		}
		key = key[size:]
	}
	return len(key) == 0
}

// str scans the string literal whose opening quote is under the
// cursor. The result is a view of the body when the literal is free of
// escapes and valid UTF-8, else of the side arena. Plain bytes are
// passed over eight at a time; the byte loop takes over at the first
// stop and for the tail shorter than a word.
func (s *scanner) str() ([]byte, bool) {
	b, start := s.body, s.pos+1
	for i := start; i < len(b); {
		for ; i+8 <= len(b); i += 8 {
			if m := stops(binary.LittleEndian.Uint64(b[i:])); m != 0 {
				i += bits.TrailingZeros64(m) >> 3
				break
			}
		}
		for i < len(b) && plain[b[i]] {
			i++
		}
		if i == len(b) {
			break
		}
		switch ch := b[i]; {
		case ch == '"':
			s.pos = i + 1
			return b[start:i:i], true
		case ch == '\\':
			return s.unescape(start, i)
		case ch < ' ':
			s.pos = i
			return nil, s.fail("control character in string")
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return s.unescape(start, i)
			}
			i += size
		}
	}
	s.pos = len(b)
	return nil, s.fail("unterminated string")
}

// unescape finishes str for a literal that needs rewriting: body[start:i]
// is clean and copied as is, the rest goes through encoding/json's
// unquote rules — escapes decoded, surrogate halves paired, anything
// that is not UTF-8 (or not a pair) replaced by U+FFFD.
func (s *scanner) unescape(start, i int) ([]byte, bool) {
	b, off := s.body, len(s.esc)
	s.esc = append(s.esc, b[start:i]...)
	for i < len(b) {
		switch ch := b[i]; {
		case ch == '"':
			s.pos = i + 1
			return s.esc[off:len(s.esc):len(s.esc)], true
		case ch == '\\':
			if i+1 >= len(b) {
				i = len(b)
				continue
			}
			i += 2
			switch b[i-1] {
			case '"', '\\', '/':
				s.esc = append(s.esc, b[i-1])
			case 'b':
				s.esc = append(s.esc, '\b')
			case 'f':
				s.esc = append(s.esc, '\f')
			case 'n':
				s.esc = append(s.esc, '\n')
			case 'r':
				s.esc = append(s.esc, '\r')
			case 't':
				s.esc = append(s.esc, '\t')
			case 'u':
				r := hex4(b[i:])
				if r < 0 {
					s.pos = i - 2
					return nil, s.fail(`bad \u escape in string`)
				}
				i += 4
				if utf16.IsSurrogate(r) {
					var low rune = -1
					if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
						low = hex4(b[i+2:])
					}
					if pair := utf16.DecodeRune(r, low); pair != utf8.RuneError {
						r, i = pair, i+6
					} else {
						r = utf8.RuneError
					}
				}
				s.esc = utf8.AppendRune(s.esc, r)
			default:
				s.pos = i - 2
				return nil, s.fail("bad escape in string")
			}
		case ch < ' ':
			s.pos = i
			return nil, s.fail("control character in string")
		case ch < utf8.RuneSelf:
			s.esc = append(s.esc, ch)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			s.esc = utf8.AppendRune(s.esc, r)
			i += size
		}
	}
	s.pos = len(b)
	return nil, s.fail("unterminated string")
}

// hex4 decodes the four hex digits at the head of b, -1 if they are
// not there.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, ch := range b[:4] {
		switch {
		case '0' <= ch && ch <= '9':
			ch -= '0'
		case 'a' <= ch && ch <= 'f':
			ch -= 'a' - 10
		case 'A' <= ch && ch <= 'F':
			ch -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(ch)
	}
	return r
}

// strValue scans a value that must be a string or null (nil: null
// leaves the zero value, as it does in encoding/json).
func (s *scanner) strValue() ([]byte, bool) {
	switch s.peek() {
	case '"':
		return s.str()
	case 'n':
		if s.lit(litNull) {
			return nil, true
		}
	}
	return nil, s.fail("expected a string")
}

// boolValue scans a value that must be a boolean or null (false, as
// encoding/json leaves the zero value), dispatched on its first byte.
func (s *scanner) boolValue() (bool, bool) {
	switch s.peek() {
	case 't':
		if s.lit(litTrue) {
			return true, true
		}
	case 'f':
		if s.lit(litFalse) {
			return false, true
		}
	case 'n':
		if s.lit(litNull) {
			return false, true
		}
	}
	return false, s.fail("expected a boolean")
}

// intValue scans a value that must be an integer literal or null. A
// fraction or an exponent is left under the cursor, where the caller's
// more() rejects it.
func (s *scanner) intValue() (int, bool) {
	if s.null() {
		return 0, true
	}
	b, i := s.body, s.pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, s.fail("expected an integer")
	}
	var n uint64
	if b[i] == '0' {
		i++ // a leading zero stands alone
	} else {
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if n > math.MaxInt/10 {
				return 0, s.fail("integer out of range")
			}
			n = n*10 + uint64(b[i]-'0')
		}
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if n > limit {
		return 0, s.fail("integer out of range")
	}
	s.pos = i
	if neg {
		return int(-n), true
	}
	return int(n), true
}
