package server

// The JSON codec of POST /v1/score and POST /v1/score/batch: the field
// tables of the three shapes on that wire, a walk over them, and an
// appender for the replies, in place of reflection-driven encoding/json.
// The syntax under the walk is the scanner of jsonscan.go.
//
// One evidence arena, two wire syntaxes: the walk reports what it finds
// to a binproto.Batch — the same request-batch builder the MBSP payload
// decoder fills — so the two protocols differ in how bytes are read, not
// in how a batch is built or scored. The request strings are views of
// the scanner's buffers and die with the pooled codec: whatever must
// outlive the handler (the trace ring, a log line) clones first, and the
// reply is written before the codec goes back to its pool. The walks of
// a session and of a string list serve POST /v1/feedback too
// (feedback.go), whose events do outlive the handler and are copied out
// of the buffers in one step per body.
//
// The appender emits byte for byte what json.Encoder with
// SetEscapeHTML(false) emits. There is no fallback: these routes have
// this one decoder.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/server/binproto"
	"repro/internal/stream"
	"repro/internal/wal"
)

// scoreCodec is the working set of one hot-route request, pooled as a
// unit: the scanner with the body and the side arena for unescaped
// strings, the evidence arena, the response batch and the reply. A warm
// codec's decode→score→encode cycle allocates nothing.
type scoreCodec struct {
	scanner
	batch binproto.Batch
	resps []engine.Response
	out   []byte

	// feedback is what a /v1/feedback scan keeps beside the arena.
	feedback feedbackScan
}

var codecPool = sync.Pool{New: func() any { return new(scoreCodec) }}

func getCodec() *scoreCodec { return codecPool.Get().(*scoreCodec) }

// putCodec returns a codec to the pool unless its buffers hold more
// than maxPooledEncodeBuf bytes between them: one giant batch must not
// pin its memory in the pool forever.
func putCodec(c *scoreCodec) {
	if c.size() <= maxPooledEncodeBuf {
		codecPool.Put(c)
	}
}

// size is the memory the codec holds on to, in bytes: every buffer it
// reuses from one request to the next.
func (c *scoreCodec) size() int {
	fb := &c.feedback
	return cap(c.body) + cap(c.esc) + cap(c.out) + c.batch.Size() +
		cap(c.resps)*int(unsafe.Sizeof(engine.Response{})) +
		cap(fb.counts)*int(unsafe.Sizeof(fb.counts[0])) +
		cap(fb.events)*int(unsafe.Sizeof(stream.Event{})) +
		cap(fb.records)*int(unsafe.Sizeof(wal.Record{}))
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

func (c *scoreCodec) failEncode() {
	c.status, c.errMsg = http.StatusInternalServerError, "response encoding failed"
}

// begin resets the codec for a scan of c.body into an empty arena.
func (c *scoreCodec) begin() {
	c.scanner.begin()
	c.batch.Reset()
}

// strList scans a string array (or null) into the last request's
// lines, or its session's docs. A null element is an empty string.
func (c *scoreCodec) strList(docs bool) bool {
	if list := c.peek() == '['; list && docs {
		c.batch.Docs()
	} else if list {
		c.batch.Lines()
	}
	return c.array("expected an array of strings", func() bool {
		s, ok := c.strValue()
		if ok && docs {
			c.batch.Doc(s)
		} else if ok {
			c.batch.Line(s)
		}
		return ok
	})
}

// clickList scans a boolean array (or null) into the session's clicks.
// A null element is false.
func (c *scoreCodec) clickList() bool {
	if c.peek() == '[' {
		c.batch.Clicks()
	}
	return c.array("expected an array of booleans", func() bool {
		click, ok := c.boolValue()
		if ok {
			c.batch.Click(click)
		}
		return ok
	})
}

// session scans a clickmodel.Session object (or null) onto the last
// request.
func (c *scoreCodec) session() bool {
	if c.peek() == '{' {
		c.batch.Session()
	}
	return c.object(sessionFields, "expected a session object", func(f int) (ok bool) {
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
		return ok
	})
}

// request scans one engine.Request object (or null: an empty request)
// into the arena.
func (c *scoreCodec) request() bool {
	c.batch.Add()
	return c.object(requestFields, "expected a request object", func(f int) (ok bool) {
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
		return ok
	})
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
	return c.requests(limit) && c.end()
}

// requests scans the batch object and its array of request objects. The
// limit is enforced as the scan goes: the request past it is neither
// scanned nor added to the arena, and the scan stops there with a 413.
func (c *scoreCodec) requests(limit int) bool {
	return c.object(batchFields, "expected a JSON object", func(int) bool {
		return c.array("expected an array of requests", func() bool {
			if c.batch.Len() == limit {
				return c.stop(http.StatusRequestEntityTooLarge, batchTooLargeMsg)
			}
			return c.request()
		})
	})
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
