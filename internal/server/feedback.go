package server

// POST /v1/feedback: click feedback on its way to the online learner,
// scanned the way the score routes' bodies are — the scanner of
// jsonscan.go, the session and string-list walks of scorejson.go, the
// pooled evidence arena. An event stands where a request stands there: a
// request carrying a session is a session event, one carrying lines a
// snippet event, whose two integers ride in a slice beside the arena.
//
// What differs is the lifetime. A scored request is dead when the reply
// is written; an accepted event sits in the learner's sink until the
// next fold, in the WAL's pending buffer until the flusher frames it, and — with
// an EM-family model configured — in the session window for the next
// Window sessions. So nothing handed to the learner may alias a pooled
// buffer: between scan and ingest, own copies every string byte of the
// body's events into ONE string and cuts sessions, snippets, docs,
// lines and clicks from exact-size slabs — five allocations per body,
// whatever the event count. The price is that any substring pins the
// whole string, which is why every table that outlives the window
// clones a key the first time it interns it (clickmodel.Stats.Add; the
// micro term table's keys come from the fold's own scratch).
//
// The body then goes to the learner in one call, Learner.IngestRun:
// each event is validated and counted on its own, and the body pays
// once for one clock read, one run into the sink and one run into the
// WAL. The reply's counts are that call's.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/clickmodel"
	"repro/internal/stream"
	"repro/internal/wal"
)

// Field tables: index = bit in the per-object seen mask.
var (
	feedbackFields = []string{"session", "sessions", "snippet", "snippets"}
	snippetFields  = []string{"lines", "impressions", "clicks"}
)

const (
	fbSession = iota
	fbSessions
	fbSnippet
	fbSnippets
)

const (
	snipLines = iota
	snipImpressions
	snipClicks
)

// feedbackScan is what a feedback scan keeps beside the evidence arena:
// the requests each of the four fields added (a key appears once, so a
// field's events are one run of the arena), and per request the
// impressions and clicks a snippet event carries. events and records
// are the scratch the body's run into the learner is built in.
type feedbackScan struct {
	fields  [fbSnippets + 1]eventRun
	counts  [][2]int
	events  []stream.Event
	records []wal.Record
}

type eventRun struct{ start, end int }

func (r eventRun) len() int { return r.end - r.start }

var feedbackTooLargeMsg = fmt.Sprintf("feedback batch exceeds the %d-event limit; split it", maxBatchItems)

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	s.met.feedbacks.Add(1)
	if s.learner == nil {
		s.writeError(w, http.StatusServiceUnavailable,
			"online learning is not enabled on this server (start microserve with -online)")
		return
	}
	ti := traceFrom(r.Context())
	t0 := time.Now()
	c := getCodec()
	defer putCodec(c)
	if !s.readBody(w, r, c) {
		return
	}
	if !c.decodeFeedback(maxBatchItems) {
		s.reply(w, c, 0)
		return
	}
	total := c.batch.Len()
	ti.stage("decode", t0)
	if s.limiter != nil {
		if ok, retryAfter := s.limiter.allowN(clientKey(r), total); !ok {
			secs := int64((retryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			s.writeError(w, http.StatusTooManyRequests,
				"feedback rate limit exceeded; retry after %ds", secs)
			return
		}
	}
	s.met.feedbackEvents.Add(uint64(total))
	ti.shape("", total)
	t1 := time.Now()
	status := s.ingestFeedback(c)
	ti.stage("ingest", t1)
	s.reply(w, c, status)
}

// decodeFeedback scans c.body as the /v1/feedback shape: one session
// and/or snippet, or lists of both, each event a request in the arena.
// A body with no event at all is a 400.
//
//mb:noalloc
func (c *scoreCodec) decodeFeedback(limit int) bool {
	c.begin()
	c.feedback.fields = [len(c.feedback.fields)]eventRun{}
	c.feedback.counts = c.feedback.counts[:0]
	if !c.events(limit) || !c.end() {
		return false
	}
	if c.batch.Len() == 0 {
		return c.fail("feedback needs a session or a snippet")
	}
	return true
}

// events scans the feedback object: under each of its four keys an
// event (null: none) or an array of events, each a fresh request that
// carries a session or a snippet (null: the zero event, which the
// learner will count as invalid). The event past the limit is neither
// scanned nor added: the scan stops there with a 413.
func (c *scoreCodec) events(limit int) bool {
	return c.object(feedbackFields, "expected a JSON object", func(f int) (ok bool) {
		event := func() bool {
			if c.batch.Len() == limit {
				return c.stop(http.StatusRequestEntityTooLarge, feedbackTooLargeMsg)
			}
			c.batch.Add()
			c.feedback.counts = append(c.feedback.counts, [2]int{})
			if f == fbSnippet || f == fbSnippets {
				return c.snippet()
			}
			return c.session()
		}
		run := &c.feedback.fields[f]
		run.start = c.batch.Len()
		switch {
		case f == fbSessions || f == fbSnippets:
			ok = c.array("expected an array of events", event)
		default:
			ok = c.null() || event()
		}
		run.end = c.batch.Len()
		return ok
	})
}

// snippet scans a stream.SnippetEvent object (or null) onto the last
// request: its lines into the arena, its two counts beside it.
func (c *scoreCodec) snippet() bool {
	n := &c.feedback.counts[len(c.feedback.counts)-1]
	return c.object(snippetFields, "expected a snippet object", func(f int) (ok bool) {
		switch f {
		case snipLines:
			ok = c.strList(false)
		case snipImpressions:
			n[0], ok = c.intValue()
		case snipClicks:
			n[1], ok = c.intValue()
		}
		return ok
	})
}

// slabs is the memory one body's events own: every string byte in one
// string under construction, and the string and click slices the events
// cut their lists from.
type slabs struct {
	text   strings.Builder
	strs   []string
	clicks []bool
}

// str copies v to the end of the text and returns the copy. The builder
// was grown to the total up front, so it never moves and the substrings
// handed out earlier stay valid.
func (o *slabs) str(v string) string {
	at := o.text.Len()
	o.text.WriteString(v)
	return o.text.String()[at:]
}

// list is str over a list, cut from the string slab; nil stays nil (a
// list the wire never carried).
func (o *slabs) list(src []string) []string {
	if src == nil {
		return nil
	}
	dst := o.strs[:len(src):len(src)]
	o.strs = o.strs[len(src):]
	for i, v := range src {
		dst[i] = o.str(v)
	}
	return dst
}

// own is the step that lets the scanned events outlive the request:
// it copies them out of the pooled body, escape and arena buffers into
// memory of their own, sized exactly by a first pass, in the route's
// ingest order — session, sessions, snippet, snippets — wherever the
// body put those keys.
//
//mb:noalloc
func (c *scoreCodec) own() ([]clickmodel.Session, []stream.SnippetEvent) {
	reqs, fb := c.batch.Requests(), &c.feedback
	var nStr, nClick, nByte int
	for i := range reqs {
		r := &reqs[i]
		if s := r.Session; s != nil {
			nByte += len(s.Query)
			nClick += len(s.Clicks)
			nStr += len(s.Docs)
			for _, d := range s.Docs {
				nByte += len(d)
			}
		}
		nStr += len(r.Lines)
		for _, l := range r.Lines {
			nByte += len(l)
		}
	}
	nSess := fb.fields[fbSession].len() + fb.fields[fbSessions].len()
	sessions := make([]clickmodel.Session, 0, nSess)                     //mb:allocok the events' own memory
	snippets := make([]stream.SnippetEvent, 0, len(reqs)-nSess)          //mb:allocok the events' own memory
	o := slabs{strs: make([]string, nStr), clicks: make([]bool, nClick)} //mb:allocok the events' own memory
	o.text.Grow(nByte)

	for _, f := range [...]int{fbSession, fbSessions} {
		for i := fb.fields[f].start; i < fb.fields[f].end; i++ {
			var sess clickmodel.Session
			if s := reqs[i].Session; s != nil {
				sess = clickmodel.Session{Query: o.str(s.Query), Docs: o.list(s.Docs)}
				if s.Clicks != nil {
					sess.Clicks = o.clicks[:len(s.Clicks):len(s.Clicks)]
					o.clicks = o.clicks[copy(sess.Clicks, s.Clicks):]
				}
			}
			sessions = append(sessions, sess)
		}
	}
	for _, f := range [...]int{fbSnippet, fbSnippets} {
		for i := fb.fields[f].start; i < fb.fields[f].end; i++ {
			n := fb.counts[i]
			snippets = append(snippets, stream.SnippetEvent{Lines: o.list(reqs[i].Lines), Impressions: n[0], Clicks: n[1]})
		}
	}
	return sessions, snippets
}

// ingestFeedback is POST /v1/feedback between the scan and the reply
// write: own the events, hand them to the learner as one run, append
// the three counts to c.out. It returns the status to reply with.
//
//mb:noalloc
func (s *Server) ingestFeedback(c *scoreCodec) int {
	sessions, snippets := c.own()
	fb := &c.feedback
	fb.events = fb.events[:0]
	for i := range sessions {
		fb.events = append(fb.events, stream.Event{Session: &sessions[i]})
	}
	for i := range snippets {
		fb.events = append(fb.events, stream.Event{Snippet: &snippets[i]})
	}
	var n stream.Counts
	n, fb.records = s.learner.IngestRun(fb.events, fb.records)
	clear(fb.events) // the pooled codec must not pin the body's events
	c.out = append(c.out[:0], `{"accepted":`...)
	c.out = strconv.AppendInt(c.out, int64(n.Accepted), 10)
	c.out = append(c.out, `,"dropped":`...)
	c.out = strconv.AppendInt(c.out, int64(n.Dropped), 10)
	c.out = append(c.out, `,"invalid":`...)
	c.out = strconv.AppendInt(c.out, int64(n.Invalid), 10)
	c.out = append(c.out, "}\n"...)
	// All-dropped is backpressure, not success: tell the producer to
	// slow down. Partial acceptance stays 200 with the counts.
	if n.Accepted == 0 && n.Dropped > 0 {
		return http.StatusTooManyRequests
	}
	return http.StatusOK
}
