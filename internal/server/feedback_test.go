package server

// encoding/json is the oracle of POST /v1/feedback too: the route scans
// its body with the hand-written scanner, and feedbackRequest — the
// struct the route used to unmarshal into — lives on here as the
// statement of what the scanner must find. Beside the differential
// tests sit the properties the route adds: events own their memory, a
// long-lived table never pins a body, a handful of allocations per body.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// feedbackRequest is the POST /v1/feedback wire shape as encoding/json
// sees it: one session and/or snippet, or batches of both.
type feedbackRequest struct {
	Session  *clickmodel.Session   `json:"session,omitempty"`
	Sessions []clickmodel.Session  `json:"sessions,omitempty"`
	Snippet  *stream.SnippetEvent  `json:"snippet,omitempty"`
	Snippets []stream.SnippetEvent `json:"snippets,omitempty"`
}

// feedbackResponse is the reply's wire shape.
type feedbackResponse struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	Invalid  int `json:"invalid"`
}

// events lists the request's events in the order the route ingests
// them: session, sessions, snippet, snippets.
func (r *feedbackRequest) events() []stream.Event {
	var evs []stream.Event
	if r.Session != nil {
		evs = append(evs, stream.Event{Session: r.Session})
	}
	for i := range r.Sessions {
		evs = append(evs, stream.Event{Session: &r.Sessions[i]})
	}
	if r.Snippet != nil {
		evs = append(evs, stream.Event{Snippet: r.Snippet})
	}
	for i := range r.Snippets {
		evs = append(evs, stream.Event{Snippet: &r.Snippets[i]})
	}
	return evs
}

// oracleFeedback is the route's contract spelled with encoding/json:
// the strict decode, at least one event, at most limit.
func oracleFeedback(body []byte, limit int) (feedbackRequest, error) {
	var req feedbackRequest
	if err := oracleDecode(body, &req); err != nil {
		return req, err
	}
	if n := len(req.events()); n == 0 || n > limit {
		return req, fmt.Errorf("%w: %d events", errOracle, n)
	}
	return req, nil
}

// scanFeedback runs the scanner and the own step on a private copy of
// body and spells the events they yield as the oracle's struct.
func scanFeedback(c *scoreCodec, body []byte, limit int) (feedbackRequest, bool) {
	c.body = append(c.body[:0], body...)
	if !c.decodeFeedback(limit) {
		return feedbackRequest{}, false
	}
	sessions, snippets := c.own()
	var req feedbackRequest
	if c.feedback.fields[fbSession].len() > 0 {
		req.Session, sessions = &sessions[0], sessions[1:]
	}
	if c.feedback.fields[fbSnippet].len() > 0 {
		req.Snippet, snippets = &snippets[0], snippets[1:]
	}
	req.Sessions, req.Snippets = sessions, snippets
	return req, true
}

// checkFeedbackAgainstOracle is the differential property: both sides
// reject, or both accept with equal events. An absent, null and empty
// list all mean no events, so empty lists compare by length.
func checkFeedbackAgainstOracle(t testing.TB, c *scoreCodec, body []byte, limit int) {
	t.Helper()
	want, werr := oracleFeedback(body, limit)
	got, ok := scanFeedback(c, body, limit)
	if (werr == nil) != ok {
		t.Fatalf("%q: oracle error %v, scanner ok=%v (%d: %s at %d)", body, werr, ok, c.status, c.errMsg, c.errPos)
	}
	if !ok {
		return
	}
	for _, r := range []*feedbackRequest{&want, &got} {
		if len(r.Sessions) == 0 {
			r.Sessions = nil
		}
		if len(r.Snippets) == 0 {
			r.Snippets = nil
		}
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("%q:\nscanner %s %#v\noracle  %s %#v", body, g, got.events(), w, want.events())
	}
}

// feedbackSeeds are the documents the feedback decode tests and the
// fuzz target start from, on top of decodeSeeds.
var feedbackSeeds = []string{
	// The README's curl bodies and the handler tests' shapes.
	`{
  "sessions": [{"query":"flights","docs":["ad1","ad2"],"clicks":[true,false]}],
  "snippets": [{"lines":["Acme Air","Find cheap flights"],"impressions":50,"clicks":9}]}`,
	`{"sessions":[
  {"query":"flights","docs":["ad1","ad2"],"clicks":[true,false]}]}`,
	`{"session":{"query":"q","docs":["a","b"],"clicks":[true,false]}}`,
	`{"snippet":{"lines":["cheap flights"],"impressions":10,"clicks":2}}`,
	`{"session":{"query":"q","docs":["a"],"clicks":[true,false]}}`,
	// All four keys, in and out of the ingest order.
	`{"session":{"query":"1","docs":["a"],"clicks":[true]},"sessions":[{"query":"2","docs":["b"],"clicks":[false]},{"query":"3"}],"snippet":{"lines":["x"],"impressions":4,"clicks":1},"snippets":[{"lines":["y","z"],"impressions":5},{}]}`,
	`{"snippets":[{"lines":["y","z"],"impressions":5},{}],"snippet":{"lines":["x"],"impressions":4,"clicks":1},"sessions":[{"query":"2","docs":["b"],"clicks":[false]},{"query":"3"}],"session":{"query":"1","docs":["a"],"clicks":[true]}}`,
	// null and empty at every level.
	`{"session":null}`, `{"sessions":null}`, `{"snippet":null}`, `{"snippets":null}`, `{"sessions":[]}`, `{"snippets":[]}`,
	`{"sessions":[null]}`, `{"snippets":[null]}`, `{"sessions":[null,{}],"snippets":[{},null]}`, `{"session":{}}`, `{"snippet":{}}`,
	`{"session":null,"snippet":{"lines":["a"],"impressions":1}}`,
	`{"snippet":{"lines":null,"impressions":null,"clicks":null}}`, `{"snippets":[{"lines":[]},{"lines":[null,"a",null]}]}`,
	`{"session":{"query":null,"docs":null,"clicks":null}}`, `{"sessions":[{"docs":[],"clicks":[]},{"docs":["a",null],"clicks":[null,true]}]}`,
	// Keys and strings: case folding, escapes, the two non-ASCII folds.
	`{"SESSIONS":[{"QUERY":"q","Docs":["a"],"CLICKS":[true]}],"Snippets":[{"LINES":["x"],"Impressions":3,"CLICKS":1}]}`,
	`{"\u0073nippet":{"\u006cines":["Find \u0063heap \"flights\"","a\\b\/c\n"],"impre` + "\u017f\u017f" + `ions":7,"clic` + "\u212a" + `s":2}}`,
	`{"` + "\u017f" + `e` + "\u017f\u017f" + `ion":{"query":"\ud83d\ude00\ud83d","docs":["é世","a` + "\xff" + `b"],"clicks":[false,true]}}`,
	// Integers only for the two counts.
	`{"snippet":{"lines":["a"],"impressions":5e1}}`, `{"snippet":{"lines":["a"],"impressions":50.0}}`, `{"snippet":{"lines":["a"],"impressions":"50"}}`,
	`{"snippet":{"lines":["a"],"impressions":-0,"clicks":-3}}`, `{"snippet":{"lines":["a"],"impressions":9223372036854775807,"clicks":-9223372036854775808}}`,
	`{"snippet":{"lines":["a"],"impressions":9223372036854775808}}`, `{"snippet":{"lines":["a"],"clicks":01}}`, `{"snippet":{"lines":["a"],"clicks":true}}`,
	// One name, two shapes: clicks is a list in a session, a count in a snippet.
	`{"session":{"docs":["a"],"clicks":[true]},"snippet":{"lines":["a"],"clicks":1}}`, `{"session":{"clicks":1}}`, `{"snippet":{"clicks":[true]}}`,
	`{"sessions":[{"clicks":0}]}`, `{"snippets":[{"clicks":[]}]}`,
	// Fields of the neighbouring shape, unknown fields, type mismatches.
	`{"snippet":{"query":"q"}}`, `{"session":{"lines":["a"]}}`, `{"session":{"impressions":1}}`, `{"requests":[]}`, `{"lines":["a"]}`, `{"nope":1}`,
	`{"snippets":[{"nope":1}]}`, `{"session":[]}`, `{"sessions":{}}`, `{"sessions":[[]]}`, `{"snippets":[5]}`, `{"snippet":"x"}`, `{"snippet":{"lines":"a"}}`,
	`{"snippet":{"lines":[5]}}`, `{"session":5,"snippet":{"lines":["a"]}}`, `[]`, `"x"`, `5`,
	// The tightenings: trailing data, duplicate keys.
	`{"snippet":{"lines":["a"],"impressions":1}}{"junk":1}`, `{"snippet":{"lines":["a"],"impressions":1}} x`, `{"session":{}}]`,
	`{"session":{},"session":{}}`, `{"session":{},"SESSION":null}`, `{"sessions":[],"sessions":[{}]}`, `{"snippet":{"lines":["a"],"lines":["b"]}}`,
	`{"snippets":[{"clicks":1,"Clicks":2}]}`, `{"sessions":[{"query":"a","\u0071uery":"b"}]}`,
	// Syntax.
	`{"sessions":[{}`, `{"sessions":[{},]}`, `{"sessions":[,{}]}`, `{"snippet":{"lines":["a"],}}`, `{"snippet":{"impressions":}}`, `{"snippet":{"impressions":1 2}}`,
	`{"snippet" {"lines":[]}}`, `{"snippets":[{"lines":["a]}]}`, `{"snippets":[{}]`, `{session:{}}`, "{\"session\":{\"query\":\"a\nb\"}}",
}

// TestFeedbackScannerMatchesOracle runs the differential property over
// both seed tables, and pins a few outcomes by hand so that the table is
// not vacuously all-reject.
func TestFeedbackScannerMatchesOracle(t *testing.T) {
	c := new(scoreCodec)
	for _, limit := range []int{maxBatchItems, 2} {
		for _, seeds := range [][]string{feedbackSeeds, decodeSeeds} {
			for _, doc := range seeds {
				checkFeedbackAgainstOracle(t, c, []byte(doc), limit)
			}
		}
	}

	accept := map[string]int{
		feedbackSeeds[0]: 2, feedbackSeeds[5]: 6, feedbackSeeds[6]: 6, `{"sessions":[null]}`: 1, `{"snippets":[null,{}]}`: 2,
		`{"session":null,"snippet":{}}`: 1, `{"SNIPPET":{"CLICKS":1}}`: 1, `{"` + "\u017f" + `ession":{}}`: 1,
	}
	for doc, n := range accept {
		if req, ok := scanFeedback(c, []byte(doc), maxBatchItems); !ok || len(req.events()) != n {
			t.Errorf("%q: ok=%v with %d events (%s), want accepted with %d", doc, ok, len(req.events()), c.errMsg, n)
		}
	}
	for _, doc := range []string{`{}`, `null`, `{"session":null}`, `{"sessions":[]}`, `{"session":{}}{}`, `{"session":{},"session":{}}`,
		`{"snippet":{"lines":["a"],"impressions":5e1}}`, `{"snippet":{"lines":["a"],"impressions":50.0}}`, `{"snippet":{"clicks":[true]}}`, `{"session":{"clicks":1}}`} {
		if _, ok := scanFeedback(c, []byte(doc), maxBatchItems); ok || c.status != http.StatusBadRequest {
			t.Errorf("%q: ok=%v status %d, want a 400", doc, ok, c.status)
		}
	}

	// The ingest order is the route's, not the body's.
	got, ok := scanFeedback(c, []byte(feedbackSeeds[6]), maxBatchItems)
	if !ok || got.Session.Query != "1" || got.Sessions[1].Query != "3" || got.Snippet.Impressions != 4 || got.Snippets[0].Lines[1] != "z" {
		t.Errorf("keys out of order: ok=%v %+v", ok, got)
	}
}

// FuzzFeedbackDecode: for every input, oracle and scanner both reject,
// or both accept with DeepEqual events.
func FuzzFeedbackDecode(f *testing.F) {
	for _, seeds := range [][]string{feedbackSeeds, decodeSeeds} {
		for _, doc := range seeds {
			f.Add([]byte(doc))
		}
	}
	for _, s := range boundaryStrings() {
		f.Add([]byte(`{"snippet":{"lines":["` + s + `"],"impressions":1}}`))
	}
	c := new(scoreCodec)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFeedbackAgainstOracle(t, c, body, 8)
	})
}

// TestFeedbackLimitStopsTheScan: the event past maxBatchItems answers
// 413 without being scanned or added, whichever of the four fields it
// arrives in, and what follows it is never looked at.
func TestFeedbackLimitStopsTheScan(t *testing.T) {
	head := `{"snippet":{"lines":["a"],"impressions":1},"sessions":[` + strings.Repeat(`{},`, maxBatchItems-3) + `{}],"snippets":[null`
	c := new(scoreCodec)
	if _, ok := scanFeedback(c, []byte(head+`]}`), maxBatchItems); !ok || c.batch.Len() != maxBatchItems {
		t.Fatalf("a body of exactly the limit: ok=%v, %d events, %d %q", ok, c.batch.Len(), c.status, c.errMsg)
	}
	body := head + `,{"lines":["never"]}, this is never scanned`
	if _, ok := scanFeedback(c, []byte(body), maxBatchItems); ok || c.status != http.StatusRequestEntityTooLarge {
		t.Fatalf("ok=%v status %d %q, want a 413", ok, c.status, c.errMsg)
	}
	if n := c.batch.Len(); n != maxBatchItems {
		t.Errorf("the arena holds %d events after the 413, want %d", n, maxBatchItems)
	}
	if want := len(head) + 1; c.errPos != want {
		t.Errorf("the scan stopped at offset %d, want %d (the first event past the limit)", c.errPos, want)
	}

	ts, _, _, _ := newOnlineServer(t)
	code, reply := post(t, ts.URL+"/v1/feedback", body)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(reply, "limit; split it") {
		t.Errorf("over the wire: %d %s", code, reply)
	}
}

// feedbackBody builds a body shaped like the benchmark's: sessions of
// four docs and three-line snippets over small vocabularies, so most
// keys repeat. tag makes the body's first session unlike any other
// body's.
func feedbackBody(t testing.TB, rng *rand.Rand, nSess, nSnip int, tag string) []byte {
	t.Helper()
	words := strings.Fields("Acme Air find cheap flights to Rome 20% off book now don't wait great rates hotels deals Ünïted $99 fares")
	var req feedbackRequest
	for i := 0; i < nSess; i++ {
		s := clickmodel.Session{Query: fmt.Sprint("query ", rng.Intn(20)), Docs: make([]string, 4), Clicks: make([]bool, 4)}
		for j := range s.Docs {
			s.Docs[j] = fmt.Sprint("ad-", rng.Intn(50))
			s.Clicks[j] = rng.Intn(4) == 0
		}
		if i == 0 && tag != "" {
			s.Query, s.Docs[0] = "query "+tag, "ad-"+tag
		}
		req.Sessions = append(req.Sessions, s)
	}
	for i := 0; i < nSnip; i++ {
		ev := stream.SnippetEvent{Impressions: 50, Clicks: rng.Intn(20)}
		for l := 0; l < 3; l++ {
			line := make([]string, 2+rng.Intn(5))
			for w := range line {
				line[w] = words[rng.Intn(len(words))]
			}
			ev.Lines = append(ev.Lines, strings.Join(line, " "))
		}
		req.Snippets = append(req.Snippets, ev)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// newFeedbackLearner is a learner of the quickstart's two counting
// models that nothing drains but the test.
func newFeedbackLearner(t testing.TB, opts ...engine.Option) (*Server, *stream.Learner) {
	t.Helper()
	eng := engine.New(opts...)
	l, err := stream.New(eng, stream.Config{Models: []string{"sdbn", engine.NameMicro}, Shards: 2, QueueCap: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return New(eng, nil, WithLearner(l)), l
}

// TestFeedbackCycleAllocs pins the //mb:noalloc annotations of the
// route — decodeFeedback, own, ingestFeedback — with
// testing.AllocsPerRun: on a warm codec a 220-event body costs the own
// step's five allocations (the text, and the session, snippet, string
// and click slabs), not one per event or per string.
func TestFeedbackCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates defer records; alloc counts only hold uninstrumented")
	}
	s, l := newFeedbackLearner(t)
	c := codecOver(feedbackBody(t, rand.New(rand.NewSource(1)), 200, 20, ""))
	cycle := func() {
		if !c.decodeFeedback(maxBatchItems) || s.ingestFeedback(c) != http.StatusOK {
			t.Fatalf("cycle failed: %d %q, reply %s", c.status, c.errMsg, c.out)
		}
	}
	cycle()
	if want := `{"accepted":220,"dropped":0,"invalid":0}` + "\n"; string(c.out) != want {
		t.Fatalf("reply %q, want %q", c.out, want)
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 8 {
		t.Errorf("a warm 220-event feedback cycle allocates %v/op, want at most 8", allocs)
	}
	if got := l.Metrics().Read()["stream.accepted"]; got != 52*220 {
		t.Errorf("the learner accepted %v events, want %v", got, 52*220)
	}
}

// TestFeedbackEventsOwnTheirMemory is the ownership rule: once own has
// run, no event points into a pooled buffer. The test parks a body's
// events in a sink, overwrites the body and escape buffers that served
// it, sends a second body through the same codec as the pool would
// (which rewrites the arena), and only then looks at the events.
func TestFeedbackEventsOwnTheirMemory(t *testing.T) {
	first := []byte(`{"snippets":[{"lines":["view of the body","esc\"aped \u00e9"],"impressions":9,"clicks":2}],` +
		`"session":{"query":"q\\1","docs":["doc-a","doc-\u0062"],"clicks":[true,false]},"sessions":[{"query":"plain","docs":["d"],"clicks":[false]}]}`)
	want, err := oracleFeedback(first, maxBatchItems)
	if err != nil {
		t.Fatal(err)
	}

	c := new(scoreCodec)
	c.body = append(c.body, first...)
	if !c.decodeFeedback(maxBatchItems) {
		t.Fatalf("scan: %d %q", c.status, c.errMsg)
	}
	sessions, snippets := c.own()
	sink := stream.NewSink(1, 16)
	for i := range sessions {
		sink.Offer(stream.Event{Session: &sessions[i]})
	}
	for i := range snippets {
		sink.Offer(stream.Event{Snippet: &snippets[i]})
	}
	sessions, snippets = nil, nil

	if len(c.esc) == 0 {
		t.Fatal("the body's escapes did not reach the side arena; the test needs them to")
	}
	for _, buf := range [][]byte{c.body[:cap(c.body)], c.esc[:cap(c.esc)]} {
		for i := range buf {
			buf[i] = 'X'
		}
	}
	second := bytes.ToUpper(first)
	second = bytes.ReplaceAll(bytes.ReplaceAll(second, []byte("TRUE"), []byte("true")), []byte("FALSE"), []byte("false"))
	second = bytes.ReplaceAll(second, []byte(`\U`), []byte(`\u`))
	if req, ok := scanFeedback(c, second, maxBatchItems); !ok || req.Session.Query != `Q\1` {
		t.Fatalf("second body: ok=%v %+v (%s)", ok, req, c.errMsg)
	}

	var got []stream.Event
	sink.DrainShard(0, func(ev *stream.Event) { got = append(got, *ev) })
	if !reflect.DeepEqual(got, want.events()) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want.events())
		t.Errorf("events changed with the codec's buffers:\n got %s\nwant %s", g, w)
	}
}

// TestInternedKeysDoNotPinBodies: all strings of a body's events are
// substrings of one string, so a table that kept one as a key would
// hold the whole text of the body alive. 200 bodies of ≈ 64 KB, each
// introducing one query and one doc no other body has, go through the
// route's decode, the learner's fold and a merge into its long-lived
// statistics; once nothing else refers to them the heap must have grown
// by the new keys, not by the megabytes of text in the ≈ 13 MB of bodies
// (≈ 3.9 MB with either clone of clickmodel's two intern sites removed).
func TestInternedKeysDoNotPinBodies(t *testing.T) {
	s, l := newFeedbackLearner(t, engine.WithKeepVersions(1)) // a publish replaces the version before it
	rng := rand.New(rand.NewSource(2))
	c := new(scoreCodec)
	feed := func(from, to int) (bytes int) {
		for i := from; i < to; i++ {
			c.body = append(c.body[:0], feedbackBody(t, rng, 640, 40, fmt.Sprint("fresh-", i))...)
			if !c.decodeFeedback(maxBatchItems) || s.ingestFeedback(c) != http.StatusOK {
				t.Fatalf("body %d: %d %q, reply %s", i, c.status, c.errMsg, c.out)
			}
			bytes += len(c.body)
			if _, err := l.Publish(); err != nil { // fold, merge, refit
				t.Fatal(err)
			}
		}
		return bytes
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	feed(0, 20) // the shared vocabulary, the tables' and the codec's buffers
	before := heap()
	weight := feed(20, 220)
	after := heap()
	if weight < 12<<20 {
		t.Fatalf("the 200 bodies weigh %d bytes; the test wants ≈ 13 MB of them", weight)
	}
	if c := l.Metrics().Read(); c["stream.pairs"] < 200 || c["stream.micro_terms"] == 0 || c["stream.dropped"]+c["stream.invalid"] != 0 {
		t.Fatalf("the bodies did not reach the tables: %+v", c)
	}
	grown := int64(after) - int64(before)
	t.Logf("heap growth over %d bytes of bodies: %d bytes", weight, grown)
	if grown > 1<<20 {
		t.Errorf("the heap grew by %d bytes over 200 bodies weighing %d: some table keeps substrings of them", grown, weight)
	}
	runtime.KeepAlive(l)
}

// ingestEach is the ingest loop the route used to run: one
// Learner.Ingest per event, each outcome counted from its error.
func ingestEach(l *stream.Learner, evs []stream.Event) (n stream.Counts) {
	for _, ev := range evs {
		switch err := l.Ingest(ev); {
		case err == nil:
			n.Accepted++
		case errors.Is(err, stream.ErrDropped):
			n.Dropped++
		default:
			n.Invalid++
		}
	}
	return n
}

// TestFeedbackScannerFeedsLearnerLikeOracle is the behaviour held end
// to end: the same bodies through the oracle decoder plus the ingest
// loop the route used to run, and through the scanner plus the route's
// run into the learner, give the same reply counts and — after a
// publish — sdbn and micro models whose every parameter is equal by
// bits.
func TestFeedbackScannerFeedsLearnerLikeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bodies := [][]byte{[]byte(feedbackSeeds[0]), []byte(feedbackSeeds[5]), []byte(feedbackSeeds[6]), []byte(`{"sessions":[null],"snippets":[null,{"lines":["a"],"impressions":1,"clicks":2}]}`)}
	for i := 0; i < 12; i++ {
		bodies = append(bodies, feedbackBody(t, rng, 200, 20, fmt.Sprint(i)))
	}

	oracleSrv, oracleL := newFeedbackLearner(t)
	scanSrv, scanL := newFeedbackLearner(t)
	c := new(scoreCodec)
	for i, body := range bodies {
		req, err := oracleFeedback(body, maxBatchItems)
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		want := ingestEach(oracleL, req.events())
		c.body = append(c.body[:0], body...)
		if !c.decodeFeedback(maxBatchItems) {
			t.Fatalf("body %d: %d %q", i, c.status, c.errMsg)
		}
		scanSrv.ingestFeedback(c)
		var got feedbackResponse
		if err := json.Unmarshal(c.out, &got); err != nil || got != (feedbackResponse{want.Accepted, want.Dropped, want.Invalid}) {
			t.Fatalf("body %d: reply %s (%v), want %+v", i, c.out, err, want)
		}
	}
	if oracleL.Metrics().Read()["stream.invalid"] == 0 {
		t.Fatal("no body carried an invalid event; the test wants the count exercised")
	}

	type params struct {
		micro []byte // the export: every term's relevance, by bits
		sdbn  []byte // the export: every pair's a and s, by bits
	}
	publish := func(srv *Server, l *stream.Learner) (p params) {
		if _, err := l.Publish(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := srv.eng.SaveSnapshot(engine.NameMicro, &buf); err != nil {
			t.Fatal(err)
		}
		a, err := snapshot.ParseV2(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.CompiledFromArtifact(a)
		if err == nil {
			err = c.ValidateTables()
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := c.NumParams(); n < 50 {
			t.Fatalf("micro holds %d terms; the test wants fifty or more", n)
		}
		p.micro = bytes.Clone(buf.Bytes())
		buf.Reset()
		if err := srv.eng.SaveSnapshot("sdbn", &buf); err != nil {
			t.Fatal(err)
		}
		cm, err := clickmodel.LoadModel(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if n := clickmodel.ParamCount(cm); n < 100 {
			t.Fatalf("sdbn holds %d parameters; the test wants fifty pairs or more", n)
		}
		p.sdbn = buf.Bytes()
		return p
	}
	want, got := publish(oracleSrv, oracleL), publish(scanSrv, scanL)
	if !bytes.Equal(got.sdbn, want.sdbn) {
		t.Errorf("the sdbn export (%d bytes) differs from the oracle learner's (%d bytes)", len(got.sdbn), len(want.sdbn))
	}
	if !bytes.Equal(got.micro, want.micro) {
		t.Errorf("the micro export (%d bytes) differs from the oracle learner's (%d bytes)", len(got.micro), len(want.micro))
	}
}

// TestFeedbackReplyFollowsSinkState: the body goes to the learner as
// one run, and for a given sink state the reply means what one Ingest
// per event meant — accepted while some shard has room, dropped past
// that, invalid for a malformed event wherever it sits — and the status
// is 429 exactly when nothing was accepted and something was dropped.
// Nothing drains the sinks, so each case's state is what it prefilled.
func TestFeedbackReplyFollowsSinkState(t *testing.T) {
	const shards, queueCap = 2, 8
	learner := func() *stream.Learner {
		l, err := stream.New(engine.New(), stream.Config{Models: []string{"sdbn"}, Shards: shards, QueueCap: queueCap})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	valid := `{"query":"q","docs":["a","b"],"clicks":[true,false]}`
	invalid := `{"query":"q","docs":["a"],"clicks":[true,false]}`
	// nValid sessions with nInvalid malformed ones among them, and a
	// malformed snippet after them.
	body := func(nValid, nInvalid int) string {
		var evs []string
		for i := 0; i < max(nValid, nInvalid); i++ {
			if i < nValid {
				evs = append(evs, valid)
			}
			if i < nInvalid {
				evs = append(evs, invalid)
			}
		}
		return `{"sessions":[` + strings.Join(evs, ",") + `],"snippet":{"lines":["x"],"impressions":0}}`
	}
	fill := clickmodel.Session{Query: "fill", Docs: []string{"a"}, Clicks: []bool{false}}
	for _, tc := range []struct {
		prefill, valid, invalid int
		want                    feedbackResponse
		status                  int
	}{
		{0, 6, 3, feedbackResponse{6, 0, 4}, http.StatusOK},
		{12, 6, 3, feedbackResponse{4, 2, 4}, http.StatusOK},
		{15, 1, 0, feedbackResponse{1, 0, 1}, http.StatusOK},
		{16, 6, 3, feedbackResponse{0, 6, 4}, http.StatusTooManyRequests},
		{16, 0, 3, feedbackResponse{0, 0, 4}, http.StatusOK},
		{0, 20, 0, feedbackResponse{16, 4, 1}, http.StatusOK},
	} {
		route, oracle := learner(), learner()
		for i := 0; i < tc.prefill; i++ {
			for _, l := range []*stream.Learner{route, oracle} {
				if err := l.Ingest(stream.Event{Session: &fill}); err != nil {
					t.Fatal(err)
				}
			}
		}
		doc := body(tc.valid, tc.invalid)
		req, err := oracleFeedback([]byte(doc), maxBatchItems)
		if err != nil {
			t.Fatal(err)
		}
		want := ingestEach(oracle, req.events())
		if (feedbackResponse{want.Accepted, want.Dropped, want.Invalid}) != tc.want {
			t.Fatalf("prefill %d: one Ingest per event counts %+v, the case says %+v", tc.prefill, want, tc.want)
		}

		rec := httptest.NewRecorder()
		New(engine.New(), nil, WithLearner(route)).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", strings.NewReader(doc)))
		var got feedbackResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got != tc.want || rec.Code != tc.status {
			t.Errorf("prefill %d, %d valid and %d invalid: %d %s, want %d %+v", tc.prefill, tc.valid, tc.invalid+1, rec.Code, rec.Body, tc.status, tc.want)
		}
		if c, o := route.Metrics().Read(), oracle.Metrics().Read(); c["stream.accepted"] != o["stream.accepted"] ||
			c["stream.dropped"] != o["stream.dropped"] || c["stream.invalid"] != o["stream.invalid"] {
			t.Errorf("prefill %d: the route's learner counts %v/%v/%v, the oracle's %v/%v/%v", tc.prefill,
				c["stream.accepted"], c["stream.dropped"], c["stream.invalid"], o["stream.accepted"], o["stream.dropped"], o["stream.invalid"])
		}
	}
}

// BenchmarkFeedbackDecode prices the decode of a 220-event body alone —
// to events the learner may keep — with the oracle and with the scanner
// plus its own step.
func BenchmarkFeedbackDecode(b *testing.B) {
	body := feedbackBody(b, rand.New(rand.NewSource(1)), 200, 20, "")
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req feedbackRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil || len(req.Sessions)+len(req.Snippets) != 220 {
				b.Fatal(err)
			}
		}
	})
	b.Run("scanner", func(b *testing.B) {
		c := codecOver(body)
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if !c.decodeFeedback(maxBatchItems) {
				b.Fatal(c.errMsg)
			}
			if sessions, snippets := c.own(); len(sessions)+len(snippets) != 220 {
				b.Fatal("events lost")
			}
		}
	})
}
