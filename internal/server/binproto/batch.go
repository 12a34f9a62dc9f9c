package binproto

import (
	"fmt"
	"unsafe"

	"repro/internal/clickmodel"
	"repro/internal/engine"
)

// Batch is the evidence arena: the one request-batch builder of the
// serving stack. A decoder — the MBSP payload decoder in this package,
// the JSON scanner of the HTTP score routes in package server — walks
// its wire syntax once and reports what it sees (a request, its ID, a
// line, a session, a doc, a click); the batch lands everything in a
// handful of flat arenas reused call over call, and Requests hands the
// finished []engine.Request to the engine. A warm batch builds a
// request slice of any shape without allocating.
//
// Two rules come with it. The slices inside the requests are cut from
// the arenas only in Requests, once the arenas have stopped growing
// (append may move a backing array), so a decoder must finish building
// before it looks at a request. And every string in the batch is a
// zero-copy view of the bytes the decoder passed in: it is valid only
// while those bytes are — until the frame buffer or the request body
// is reused. The engine does not retain request strings; anything that
// must outlive the scoring call (a trace, a log line) clones first.
//
// The zero Batch is ready for Reset. A Batch is not safe for
// concurrent use.
type Batch struct {
	reqs      []engine.Request
	lines     []string
	lineSpans []span
	docs      []string
	clicks    []bool
	sessions  []clickmodel.Session
	sessSpans []sessSpan
}

// span records where one request's lines landed in the line arena.
type span struct {
	req   int
	start int
	n     int
}

// sessSpan is span for macro evidence: one session's query plus its
// doc and click ranges. A negative count is a list the wire never
// carried (JSON may omit either), which stays nil in the session.
type sessSpan struct {
	req     int
	query   string
	dstart  int
	ndocs   int
	cstart  int
	nclicks int
}

// Reset empties the batch for the next decode, keeping the arenas.
func (b *Batch) Reset() {
	if b.lines == nil {
		// First use. A list that is present but empty must slice to a
		// non-nil empty slice, which a nil arena cannot give.
		b.reqs = make([]engine.Request, 0, 64)
		b.lines, b.docs, b.clicks = make([]string, 0, 64), make([]string, 0, 16), make([]bool, 0, 16)
	}
	b.reqs = b.reqs[:0]
	b.lines = b.lines[:0]
	b.lineSpans = b.lineSpans[:0]
	b.docs = b.docs[:0]
	b.clicks = b.clicks[:0]
	b.sessions = b.sessions[:0]
	b.sessSpans = b.sessSpans[:0]
}

// Len is the number of requests added since Reset.
func (b *Batch) Len() int { return len(b.reqs) }

// Size is the memory the arenas hold on to, in bytes — what a pool of
// batches checks before taking one back.
func (b *Batch) Size() int {
	return cap(b.reqs)*int(unsafe.Sizeof(engine.Request{})) +
		(cap(b.lines)+cap(b.docs))*int(unsafe.Sizeof("")) + cap(b.clicks) +
		cap(b.lineSpans)*int(unsafe.Sizeof(span{})) +
		cap(b.sessSpans)*int(unsafe.Sizeof(sessSpan{})) +
		cap(b.sessions)*int(unsafe.Sizeof(clickmodel.Session{}))
}

// Add appends an empty request; the setters below fill it in.
func (b *Batch) Add() { b.reqs = append(b.reqs, engine.Request{}) }

// SetID, SetModel and SetMaxN set the scalar fields of the request
// added last.
func (b *Batch) SetID(s []byte)    { b.reqs[len(b.reqs)-1].ID = byteString(s) }
func (b *Batch) SetModel(s []byte) { b.reqs[len(b.reqs)-1].Model = byteString(s) }
func (b *Batch) SetMaxN(n int)     { b.reqs[len(b.reqs)-1].MaxN = n }

// Lines opens the last request's line list — micro evidence; Line
// appends to it.
func (b *Batch) Lines() {
	b.lineSpans = append(b.lineSpans, span{req: len(b.reqs) - 1, start: len(b.lines)})
}

func (b *Batch) Line(s []byte) {
	b.lines = append(b.lines, byteString(s))
	b.lineSpans[len(b.lineSpans)-1].n++
}

// Session opens the last request's session — macro evidence. Query
// sets its query; Docs and Clicks open its two lists, Doc and Click
// append to them.
func (b *Batch) Session() {
	b.sessSpans = append(b.sessSpans, sessSpan{req: len(b.reqs) - 1, ndocs: -1, nclicks: -1})
}

func (b *Batch) Query(s []byte) { b.sessSpans[len(b.sessSpans)-1].query = byteString(s) }

func (b *Batch) Docs() {
	ss := &b.sessSpans[len(b.sessSpans)-1]
	ss.dstart, ss.ndocs = len(b.docs), 0
}

func (b *Batch) Doc(s []byte) {
	b.docs = append(b.docs, byteString(s))
	b.sessSpans[len(b.sessSpans)-1].ndocs++
}

func (b *Batch) Clicks() {
	ss := &b.sessSpans[len(b.sessSpans)-1]
	ss.cstart, ss.nclicks = len(b.clicks), 0
}

func (b *Batch) Click(v bool) {
	b.clicks = append(b.clicks, v)
	b.sessSpans[len(b.sessSpans)-1].nclicks++
}

// Requests closes the build: the arenas are final, so the slices they
// back can no longer move, and every request gets its evidence. The
// result is valid until the next Reset.
//
//mb:noalloc
func (b *Batch) Requests() []engine.Request {
	for _, s := range b.lineSpans {
		b.reqs[s.req].Lines = b.lines[s.start : s.start+s.n : s.start+s.n]
	}
	b.sessions = b.sessions[:0]
	for _, ss := range b.sessSpans {
		sess := clickmodel.Session{Query: ss.query}
		if ss.ndocs >= 0 {
			sess.Docs = b.docs[ss.dstart : ss.dstart+ss.ndocs : ss.dstart+ss.ndocs]
		}
		if ss.nclicks >= 0 {
			sess.Clicks = b.clicks[ss.cstart : ss.cstart+ss.nclicks : ss.cstart+ss.nclicks]
		}
		b.sessions = append(b.sessions, sess)
	}
	for k, ss := range b.sessSpans {
		b.reqs[ss.req].Session = &b.sessions[k]
	}
	return b.reqs
}

// decodeRequests rebuilds the request batch from an MBSP score
// payload — the binary wire syntax over the builder above. Strings are
// zero-copy views into payload: valid until the next frame is read,
// which is after the batch is fully scored and the responses encoded.
//
//mb:noalloc
func (b *Batch) decodeRequests(payload []byte) ([]engine.Request, error) {
	r := reader{b: payload}
	n := int(r.u32())
	if r.err == nil && n > MaxBatch {
		return nil, fmt.Errorf("binproto: batch of %d requests exceeds the %d limit; split it", n, MaxBatch) //mb:allocok cold reject path
	}
	b.Reset()
	for i := 0; i < n && r.err == nil; i++ {
		b.Add()
		b.SetID(r.raw())
		b.SetModel(r.raw())
		b.SetMaxN(int(r.u8()))
		switch kind := r.u8(); kind {
		case evLines:
			b.Lines()
			for j := int(r.u16()); j > 0 && r.err == nil; j-- {
				b.Line(r.raw())
			}
		case evSession:
			b.Session()
			b.Query(r.raw())
			nd := int(r.u16())
			b.Docs()
			for j := 0; j < nd && r.err == nil; j++ {
				b.Doc(r.raw())
			}
			bits := r.bytes((nd + 7) / 8)
			b.Clicks()
			for j := 0; j < nd && r.err == nil; j++ {
				b.Click(bits[j/8]&(1<<(j%8)) != 0)
			}
		default:
			if r.err == nil {
				return nil, fmt.Errorf("binproto: request %d: unknown evidence kind %d", i, kind) //mb:allocok cold reject path
			}
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return b.Requests(), nil
}
