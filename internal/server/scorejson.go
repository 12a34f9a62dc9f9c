package server

// The JSON codec of POST /v1/score and POST /v1/score/batch: a scanner
// and an appender written for the three shapes on that wire and nothing
// else, in place of reflection-driven encoding/json.
//
// One evidence arena, two wire syntaxes: the scanner walks the body
// once and reports what it finds to a binproto.Batch — the same
// request-batch builder the MBSP payload decoder fills — so the two
// protocols differ in how bytes are read, not in how a batch is built
// or scored. Strings without escapes are views of the body buffer;
// strings with escapes or invalid UTF-8 are unescaped into a side
// arena. Both die with the pooled codec: whatever must outlive the
// handler (the trace ring, a log line) clones first, and the reply is
// written before the codec goes back to its pool.
//
// The contract is encoding/json's, which stays on as the oracle in
// this package's tests: the scanner accepts exactly the documents
// json.Decoder with DisallowUnknownFields accepts for these shapes and
// yields equal values (case-insensitive keys, null as a no-op, \u
// escapes and surrogate pairs, U+FFFD for invalid UTF-8, integers only
// for max_n, unknown key → 400), with two deliberate tightenings —
// only whitespace may follow the value, and a key may appear once per
// object — and the appender emits byte for byte what json.Encoder with
// SetEscapeHTML(false) emits. There is no fallback: these two routes
// have this one decoder.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/server/binproto"
)

// scoreCodec is the working set of one hot-route request, pooled as a
// unit: the body, the side arena for unescaped strings, the evidence
// arena, the response batch and the reply. A warm codec's
// decode→score→encode cycle allocates nothing.
type scoreCodec struct {
	body []byte
	pos  int
	esc  []byte

	// status is 0 while the cycle is healthy, else the HTTP status of
	// the failure errMsg describes (errPos: where the scan stopped).
	status int
	errMsg string
	errPos int

	batch binproto.Batch
	resps []engine.Response
	out   []byte
}

var codecPool = sync.Pool{New: func() any { return new(scoreCodec) }}

func getCodec() *scoreCodec { return codecPool.Get().(*scoreCodec) }

// putCodec returns a codec to the pool unless one of its buffers grew
// past maxPooledEncodeBuf: one giant batch must not pin its memory in
// the pool forever.
func putCodec(c *scoreCodec) {
	if cap(c.body) > maxPooledEncodeBuf || cap(c.esc) > maxPooledEncodeBuf ||
		cap(c.out) > maxPooledEncodeBuf || c.batch.Size() > maxPooledEncodeBuf {
		return
	}
	codecPool.Put(c)
}

// readBody reads the bounded request body into the codec's buffer,
// sized up front from Content-Length when the client sent one (capped,
// so a header alone cannot reserve more than a pooled buffer may hold).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, c *scoreCodec) bool {
	buf := c.body[:0]
	if n := min(r.ContentLength, maxPooledEncodeBuf); int64(cap(buf)) <= n {
		buf = make([]byte, 0, n+1) // +1: the read that reports EOF needs room
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			c.body = buf
			if err != io.EOF {
				s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			}
			return err == io.EOF
		}
	}
}

// reply sends the outcome of a cycle: the encoded reply, or the error
// body of the failure the cycle recorded.
func (s *Server) reply(w http.ResponseWriter, c *scoreCodec, status int) {
	switch c.status {
	case 0:
		if status >= 400 {
			s.met.errors.Add(1)
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(c.out)))
		w.WriteHeader(status)
		w.Write(c.out)
	case http.StatusBadRequest:
		s.writeError(w, c.status, "bad request body: %s at offset %d", c.errMsg, c.errPos)
	default:
		s.writeError(w, c.status, "%s", c.errMsg)
	}
}

// scoreBatchCycle is POST /v1/score/batch between the body read and
// the reply write: scan c.body into the arena, score, append the reply
// to c.out. It returns the status to reply with; a failure is left in
// c.status, which overrides it.
//
//mb:noalloc
func (s *Server) scoreBatchCycle(ctx context.Context, c *scoreCodec, ti *traceInfo, t0 time.Time) int {
	if !c.decodeBatch(maxBatchItems) {
		return 0
	}
	reqs := c.batch.Requests()
	ti.stage("decode", t0)
	s.met.batchRequests.Add(uint64(len(reqs)))
	t1 := time.Now()
	c.resps = s.eng.ScoreBatchInto(ctx, reqs, c.resps)
	ti.stage("score", t1)
	if len(reqs) > 0 {
		ti.shape(reqs[0].Model, len(reqs))
	}
	c.encodeBatch()
	return http.StatusOK
}

// scoreCycle is scoreBatchCycle for POST /v1/score: one request in,
// one response out, and the status the scoring outcome maps to.
//
//mb:noalloc
func (s *Server) scoreCycle(ctx context.Context, c *scoreCodec, ti *traceInfo, t0 time.Time) int {
	if !c.decodeOne() {
		return 0
	}
	req := &c.batch.Requests()[0]
	ti.stage("decode", t0)
	t1 := time.Now()
	resp, err := s.eng.ScoreCTR(ctx, *req)
	ti.stage("score", t1)
	ti.shape(resp.Model, 1)
	c.out = c.out[:0]
	if c.out = appendResponse(c.out, &resp); c.out == nil {
		c.failEncode()
		return 0
	}
	c.out = append(c.out, '\n')
	// Model-resolution failures are addressing errors (404); evidence
	// and validation failures are semantic (422). resp carries Error.
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, engine.ErrNoModel):
		return http.StatusNotFound
	}
	return http.StatusUnprocessableEntity
}

// --- scanning ---

// Field tables: index = bit in the per-object seen mask.
var (
	batchFields   = []string{"requests"}
	requestFields = []string{"id", "model", "session", "lines", "max_n"}
	sessionFields = []string{"query", "docs", "clicks"}
	litNull       = []byte("null")
	litTrue       = []byte("true")
	litFalse      = []byte("false")
)

const (
	reqID = iota
	reqModel
	reqSession
	reqLines
	reqMaxN
)

const (
	sessQuery = iota
	sessDocs
	sessClicks
)

// plain marks the bytes a string scan passes over without a second
// look: printable ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// fail records the first failure of a scan and returns false, so
// scanning code reads `return c.fail(...)`.
func (c *scoreCodec) fail(msg string) bool {
	if c.status == 0 {
		c.status, c.errMsg, c.errPos = http.StatusBadRequest, msg, c.pos
	}
	return false
}

func (c *scoreCodec) failEncode() {
	c.status, c.errMsg = http.StatusInternalServerError, "response encoding failed"
}

// begin resets the codec for a scan of c.body.
func (c *scoreCodec) begin() {
	c.pos, c.esc = 0, c.esc[:0]
	c.status, c.errMsg, c.errPos = 0, "", 0
	c.batch.Reset()
	c.ws()
}

// end checks that only whitespace follows the top-level value.
func (c *scoreCodec) end() bool {
	c.ws()
	if c.pos != len(c.body) {
		return c.fail("unexpected data after the JSON value")
	}
	return true
}

func (c *scoreCodec) ws() {
	for c.pos < len(c.body) {
		switch c.body[c.pos] {
		case ' ', '\t', '\r', '\n':
			c.pos++
		default:
			return
		}
	}
}

// peek is the byte under the cursor, 0 at the end of the body — which
// no JSON token starts with, so every caller's default case takes it.
func (c *scoreCodec) peek() byte {
	if c.pos < len(c.body) {
		return c.body[c.pos]
	}
	return 0
}

// lit consumes the literal at the cursor if it is there.
func (c *scoreCodec) lit(word []byte) bool {
	if bytes.HasPrefix(c.body[c.pos:], word) {
		c.pos += len(word)
		return true
	}
	return false
}

// enter steps over the opening bracket under the cursor and reports
// whether the container closes right away (closer consumed too).
func (c *scoreCodec) enter(closer byte) (empty bool) {
	c.pos++
	c.ws()
	if c.peek() == closer {
		c.pos++
		return true
	}
	return false
}

// more steps over what follows a member: a comma (another member
// follows) or the container's closer.
func (c *scoreCodec) more(closer byte) (more, ok bool) {
	c.ws()
	switch c.peek() {
	case ',':
		c.pos++
		c.ws()
		return true, true
	case closer:
		c.pos++
		return false, true
	}
	return false, c.fail("expected ',' or the end of the object or array")
}

// key scans `"name" :` and resolves name against fields the way
// encoding/json does, case-insensitively, then rejects unknown names
// and names already seen in this object.
func (c *scoreCodec) key(fields []string, seen *uint) (int, bool) {
	if c.peek() != '"' {
		return 0, c.fail("expected an object key")
	}
	at := c.pos
	name, ok := c.str()
	if !ok {
		return 0, false
	}
	// No two fields of one shape are equal under folding, so the exact
	// pass encoding/json makes first cannot pick a different field.
	f := -1
	for i, want := range fields {
		if foldsTo(name, want) {
			f = i
			break
		}
	}
	switch {
	case f < 0:
		c.pos = at
		return 0, c.fail("unknown field")
	case *seen&(1<<f) != 0:
		c.pos = at
		return 0, c.fail("duplicate key")
	}
	*seen |= 1 << f
	c.ws()
	if c.peek() != ':' {
		return 0, c.fail("expected ':' after the object key")
	}
	c.pos++
	c.ws()
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
// escapes and valid UTF-8, else of the side arena.
func (c *scoreCodec) str() ([]byte, bool) {
	b, start := c.body, c.pos+1
	for i := start; i < len(b); {
		for i < len(b) && plain[b[i]] {
			i++
		}
		if i == len(b) {
			break
		}
		switch ch := b[i]; {
		case ch == '"':
			c.pos = i + 1
			return b[start:i:i], true
		case ch == '\\':
			return c.unescape(start, i)
		case ch < ' ':
			c.pos = i
			return nil, c.fail("control character in string")
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return c.unescape(start, i)
			}
			i += size
		}
	}
	c.pos = len(b)
	return nil, c.fail("unterminated string")
}

// unescape finishes str for a literal that needs rewriting: body[start:i]
// is clean and copied as is, the rest goes through encoding/json's
// unquote rules — escapes decoded, surrogate halves paired, anything
// that is not UTF-8 (or not a pair) replaced by U+FFFD.
func (c *scoreCodec) unescape(start, i int) ([]byte, bool) {
	b, off := c.body, len(c.esc)
	c.esc = append(c.esc, b[start:i]...)
	for i < len(b) {
		switch ch := b[i]; {
		case ch == '"':
			c.pos = i + 1
			return c.esc[off:len(c.esc):len(c.esc)], true
		case ch == '\\':
			if i+1 >= len(b) {
				i = len(b)
				continue
			}
			i += 2
			switch b[i-1] {
			case '"', '\\', '/':
				c.esc = append(c.esc, b[i-1])
			case 'b':
				c.esc = append(c.esc, '\b')
			case 'f':
				c.esc = append(c.esc, '\f')
			case 'n':
				c.esc = append(c.esc, '\n')
			case 'r':
				c.esc = append(c.esc, '\r')
			case 't':
				c.esc = append(c.esc, '\t')
			case 'u':
				r := hex4(b[i:])
				if r < 0 {
					c.pos = i - 2
					return nil, c.fail(`bad \u escape in string`)
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
				c.esc = utf8.AppendRune(c.esc, r)
			default:
				c.pos = i - 2
				return nil, c.fail("bad escape in string")
			}
		case ch < ' ':
			c.pos = i
			return nil, c.fail("control character in string")
		case ch < utf8.RuneSelf:
			c.esc = append(c.esc, ch)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			c.esc = utf8.AppendRune(c.esc, r)
			i += size
		}
	}
	c.pos = len(b)
	return nil, c.fail("unterminated string")
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
func (c *scoreCodec) strValue() ([]byte, bool) {
	switch c.peek() {
	case '"':
		return c.str()
	case 'n':
		if c.lit(litNull) {
			return nil, true
		}
	}
	return nil, c.fail("expected a string")
}

// intValue scans a value that must be an integer literal or null. A
// fraction or an exponent is left under the cursor, where the caller's
// more() rejects it.
func (c *scoreCodec) intValue() (int, bool) {
	if c.lit(litNull) {
		return 0, true
	}
	b, i := c.body, c.pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, c.fail("expected an integer")
	}
	var n uint64
	if b[i] == '0' {
		i++ // a leading zero stands alone
	} else {
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if n > math.MaxInt/10 {
				return 0, c.fail("integer out of range")
			}
			n = n*10 + uint64(b[i]-'0')
		}
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if n > limit {
		return 0, c.fail("integer out of range")
	}
	c.pos = i
	if neg {
		return int(-n), true
	}
	return int(n), true
}

// strList scans a string array (or null) into the last request's
// lines, or its session's docs. A null element is an empty string.
func (c *scoreCodec) strList(docs bool) bool {
	if c.lit(litNull) {
		return true
	}
	if c.peek() != '[' {
		return c.fail("expected an array of strings")
	}
	if docs {
		c.batch.Docs()
	} else {
		c.batch.Lines()
	}
	if c.enter(']') {
		return true
	}
	for {
		s, ok := c.strValue()
		if !ok {
			return false
		}
		if docs {
			c.batch.Doc(s)
		} else {
			c.batch.Line(s)
		}
		if more, ok := c.more(']'); !more {
			return ok
		}
	}
}

// clickList scans a boolean array (or null) into the session's clicks.
// A null element is false.
func (c *scoreCodec) clickList() bool {
	if c.lit(litNull) {
		return true
	}
	if c.peek() != '[' {
		return c.fail("expected an array of booleans")
	}
	c.batch.Clicks()
	if c.enter(']') {
		return true
	}
	for {
		switch {
		case c.lit(litTrue):
			c.batch.Click(true)
		case c.lit(litFalse), c.lit(litNull):
			c.batch.Click(false)
		default:
			return c.fail("expected a boolean")
		}
		if more, ok := c.more(']'); !more {
			return ok
		}
	}
}

// session scans a clickmodel.Session object (or null) onto the last
// request.
func (c *scoreCodec) session() bool {
	if c.lit(litNull) {
		return true
	}
	if c.peek() != '{' {
		return c.fail("expected a session object")
	}
	c.batch.Session()
	if c.enter('}') {
		return true
	}
	var seen uint
	for {
		f, ok := c.key(sessionFields, &seen)
		if !ok {
			return false
		}
		switch f {
		case sessQuery:
			var q []byte
			if q, ok = c.strValue(); ok {
				c.batch.Query(q)
			}
		case sessDocs:
			ok = c.strList(true)
		case sessClicks:
			ok = c.clickList()
		}
		if !ok {
			return false
		}
		if more, ok := c.more('}'); !more {
			return ok
		}
	}
}

// request scans one engine.Request object (or null: an empty request)
// into the arena.
func (c *scoreCodec) request() bool {
	c.batch.Add()
	if c.lit(litNull) {
		return true
	}
	if c.peek() != '{' {
		return c.fail("expected a request object")
	}
	if c.enter('}') {
		return true
	}
	var seen uint
	for {
		f, ok := c.key(requestFields, &seen)
		if !ok {
			return false
		}
		switch f {
		case reqID:
			var id []byte
			if id, ok = c.strValue(); ok {
				c.batch.SetID(id)
			}
		case reqModel:
			var model []byte
			if model, ok = c.strValue(); ok {
				c.batch.SetModel(model)
			}
		case reqSession:
			ok = c.session()
		case reqLines:
			ok = c.strList(false)
		case reqMaxN:
			var n int
			if n, ok = c.intValue(); ok {
				c.batch.SetMaxN(n)
			}
		}
		if !ok {
			return false
		}
		if more, ok := c.more('}'); !more {
			return ok
		}
	}
}

// decodeOne scans c.body as one engine.Request, the /v1/score shape.
//
//mb:noalloc
func (c *scoreCodec) decodeOne() bool {
	c.begin()
	return c.request() && c.end()
}

// decodeBatch scans c.body as {"requests": [...]}, the /v1/score/batch
// shape.
//
//mb:noalloc
func (c *scoreCodec) decodeBatch(limit int) bool {
	c.begin()
	if c.lit(litNull) {
		return c.end()
	}
	if c.peek() != '{' {
		return c.fail("expected a JSON object")
	}
	if c.enter('}') {
		return c.end()
	}
	var seen uint
	for {
		if _, ok := c.key(batchFields, &seen); !ok || !c.requests(limit) {
			return false
		}
		if more, ok := c.more('}'); !more {
			return ok && c.end()
		}
	}
}

// requests scans the array of request objects (or null). The limit is
// enforced as the scan goes: the request past it is neither scanned nor
// added to the arena, and the scan stops there with a 413.
func (c *scoreCodec) requests(limit int) bool {
	if c.lit(litNull) {
		return true
	}
	if c.peek() != '[' {
		return c.fail("expected an array of requests")
	}
	if c.enter(']') {
		return true
	}
	for {
		if c.batch.Len() == limit {
			c.status, c.errMsg, c.errPos = http.StatusRequestEntityTooLarge, batchTooLargeMsg, c.pos
			return false
		}
		if !c.request() {
			return false
		}
		if more, ok := c.more(']'); !more {
			return ok
		}
	}
}

var batchTooLargeMsg = fmt.Sprintf("batch exceeds the %d-request limit; split it", maxBatchItems)

// --- appending ---

// encodeBatch appends {"responses":[...]} for c.resps to c.out.
//
//mb:noalloc
func (c *scoreCodec) encodeBatch() {
	c.out = append(c.out[:0], `{"responses":[`...)
	for i := range c.resps {
		if i > 0 {
			c.out = append(c.out, ',')
		}
		if c.out = appendResponse(c.out, &c.resps[i]); c.out == nil {
			c.failEncode()
			return
		}
	}
	c.out = append(c.out, "]}\n"...)
}

// appendResponse appends r as encoding/json would — same field order,
// same omitempty rules — and returns nil if r holds a float JSON cannot
// carry (NaN, ±Inf), which encoding/json refuses too.
//
//mb:noalloc
func appendResponse(dst []byte, r *engine.Response) []byte {
	dst = append(dst, '{')
	if r.ID != "" {
		dst = append(dst, `"id":`...)
		dst = appendString(dst, r.ID)
		dst = append(dst, ',')
	}
	if r.Model != "" {
		dst = append(dst, `"model":`...)
		dst = appendString(dst, r.Model)
		dst = append(dst, ',')
	}
	if r.ModelVersion != 0 {
		dst = append(dst, `"model_version":`...)
		dst = strconv.AppendInt(dst, int64(r.ModelVersion), 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"ctr":`...)
	if dst = appendFloat(dst, r.CTR); dst == nil {
		return nil
	}
	if len(r.Positions) > 0 {
		dst = append(dst, `,"positions":`...)
		for i, p := range r.Positions {
			if i == 0 {
				dst = append(dst, '[')
			} else {
				dst = append(dst, ',')
			}
			if dst = appendFloat(dst, p); dst == nil {
				return nil
			}
		}
		dst = append(dst, ']')
	}
	if r.Score != 0 {
		dst = append(dst, `,"score":`...)
		if dst = appendFloat(dst, r.Score); dst == nil {
			return nil
		}
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, r.Error)
	}
	return append(dst, '}')
}

// appendFloat is encoding/json's float64 encoder: shortest
// round-trip digits, 'e' form below 1e-6 and from 1e21 with the
// exponent's leading zero dropped (e-09 → e-9). nil for NaN and ±Inf.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString is encoding/json's string encoder with HTML escaping
// off: quote and backslash escaped, control characters as \b \f \n \r
// \t or \u00XX, invalid UTF-8 as \ufffd, U+2028 and U+2029 always
// escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if ch := s[i]; ch < utf8.RuneSelf {
			if plain[ch] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch ch {
			case '\\', '"':
				dst = append(dst, '\\', ch)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[ch>>4], hexDigits[ch&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
