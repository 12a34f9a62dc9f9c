package server

// encoding/json is the oracle here: the hot routes no longer run it,
// so these tests pin the hand-written scanner and appender against it —
// table cases, the differential fuzz targets, the byte-identity check
// on the handler fixtures — alongside the properties the codec adds
// (zero allocations on a warm pool, the early 413, bounded pooling, the
// string-lifetime rule).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clickmodel"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/wal"
)

// batchRequest / batchResponse are the /v1/score/batch wire shapes as
// encoding/json sees them.
type batchRequest struct {
	Requests []engine.Request `json:"requests"`
}

type batchResponse struct {
	Responses []engine.Response `json:"responses"`
}

var errOracle = errors.New("oracle: rejected")

// hasDuplicateKey walks a document encoding/json already accepted and
// reports whether some object names one field twice — two keys equal
// under the case folding field matching uses.
func hasDuplicateKey(doc []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(doc))
	var walk func() bool
	walk = func() bool {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'):
			var keys []string
			for dec.More() {
				kt, err := dec.Token()
				if err != nil {
					return false
				}
				key := kt.(string)
				for _, prev := range keys {
					if strings.EqualFold(prev, key) {
						return true
					}
				}
				keys = append(keys, key)
				if walk() {
					return true
				}
			}
			dec.Token()
		case json.Delim('['):
			for dec.More() {
				if walk() {
					return true
				}
			}
			dec.Token()
		}
		return false
	}
	return walk()
}

// oracleDecode is the contract of the two hot routes spelled with
// encoding/json: DisallowUnknownFields, then the two tightenings.
func oracleDecode(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: data after the value", errOracle)
	}
	if hasDuplicateKey(body) {
		return fmt.Errorf("%w: duplicate key", errOracle)
	}
	return nil
}

func oracleBatch(body []byte, limit int) ([]engine.Request, error) {
	var req batchRequest
	if err := oracleDecode(body, &req); err != nil {
		return nil, err
	}
	if len(req.Requests) > limit {
		return nil, fmt.Errorf("%w: over the batch limit", errOracle)
	}
	return req.Requests, nil
}

// codecOver is a fresh codec whose body buffer is body itself.
func codecOver(body []byte) *scoreCodec {
	c := new(scoreCodec)
	c.body = body
	return c
}

// scanBatch / scanOne run the scanner on a private copy of body.
func scanBatch(c *scoreCodec, body []byte, limit int) ([]engine.Request, bool) {
	c.body = append(c.body[:0], body...)
	if !c.decodeBatch(limit) {
		return nil, false
	}
	return c.batch.Requests(), true
}

func scanOne(c *scoreCodec, body []byte) (engine.Request, bool) {
	c.body = append(c.body[:0], body...)
	if !c.decodeOne() {
		return engine.Request{}, false
	}
	return c.batch.Requests()[0], true
}

// checkAgainstOracle is the differential property: both sides reject,
// or both accept with equal requests. An absent, null and empty
// "requests" all mean no requests, so empty batches compare by length.
func checkAgainstOracle(t testing.TB, c *scoreCodec, body []byte, limit int) {
	t.Helper()
	want, werr := oracleBatch(body, limit)
	got, ok := scanBatch(c, body, limit)
	switch {
	case (werr == nil) != ok:
		t.Fatalf("batch %q: oracle error %v, scanner ok=%v (%s at %d)", body, werr, ok, c.errMsg, c.errPos)
	case ok && len(want)+len(got) > 0 && !reflect.DeepEqual(got, want):
		t.Fatalf("batch %q:\nscanner %s\noracle  %s", body, dump(got), dump(want))
	}

	var wantOne engine.Request
	werr = oracleDecode(body, &wantOne)
	gotOne, ok := scanOne(c, body)
	switch {
	case (werr == nil) != ok:
		t.Fatalf("single %q: oracle error %v, scanner ok=%v (%s at %d)", body, werr, ok, c.errMsg, c.errPos)
	case ok && !reflect.DeepEqual(gotOne, wantOne):
		t.Fatalf("single %q:\nscanner %s\noracle  %s", body, dump(gotOne), dump(wantOne))
	}
}

// dump prints requests with sessions dereferenced and nil told from
// empty, which %+v does not do.
func dump(v any) string { return fmt.Sprintf("%#v", deref(v)) }

func deref(v any) any {
	type flat struct {
		ID, Model string
		Session   any
		Lines     []string
		MaxN      int
	}
	one := func(r engine.Request) flat {
		f := flat{ID: r.ID, Model: r.Model, Lines: r.Lines, MaxN: r.MaxN}
		if r.Session != nil {
			f.Session = *r.Session
		}
		return f
	}
	switch x := v.(type) {
	case engine.Request:
		return one(x)
	case []engine.Request:
		out := make([]flat, len(x))
		for i := range x {
			out[i] = one(x[i])
		}
		return out
	}
	return v
}

// decodeSeeds are the documents every decode test and fuzz target
// starts from: the shapes the handler tests post, each corner of the
// contract, and each way to break it.
var decodeSeeds = []string{
	// The handler fixtures.
	`{"requests":[{"id":"s1","model":"pbm","session":{"query":"q","docs":["a","b","c"],"clicks":[true,false,false]}}]}`,
	`{"requests":[{"id":"m1","model":"micro","lines":["Acme","Find cheap flights"]},{"id":"bad","model":"ghost","lines":["x"]}]}`,
	`{"id":"m1","model":"micro","lines":["Acme","Find cheap flights"],"max_n":3}`,
	`{"model":"pbm@9","session":{"query":"q","docs":["a"],"clicks":[false]}}`,
	// Empty and null at every level.
	`{}`, `null`, ` { } `, `{"requests":[]}`, `{"requests":null}`, `{"requests":[{}]}`, `{"requests":[null,{}]}`,
	`{"requests":[{"id":null,"model":null,"session":null,"lines":null,"max_n":null}]}`,
	`{"requests":[{"lines":[]},{"lines":[null,"a",null]},{"session":{}},{"session":{"docs":[],"clicks":[]}}]}`,
	`{"requests":[{"session":{"query":null,"docs":null,"clicks":null}},{"session":{"docs":["a",null],"clicks":[null,true]}}]}`,
	`{"session":{"docs":["a","b","c"],"clicks":[true]}}`,
	// Keys: case folding, escapes, the two non-ASCII folds.
	`{"REQUESTS":[{"ID":"a","Model":"m","LINES":["x"],"Max_N":2,"SESSION":{"QUERY":"q","Docs":[],"CLICKS":[]}}]}`,
	`{"\u0072equests":[{"\u0069d":"a"}]}`, `{"reque` + "\u017f" + `ts":[{"clic` + "\u212a" + `s":1}]}`,
	`{"requests":[{"session":{"clic` + "\u212a" + `s":[true]},"line` + "\u017f" + `":["x"]}]}`,
	// Strings: every escape, pairs, lone halves, raw and invalid UTF-8.
	`{"id":"a\"b\\c\/d\b\f\n\r\t"}`, `{"id":"\u00e9\u4e16\ud83d\ude00"}`, `{"id":"\ud83d"}`, `{"id":"\ude00\ud83d"}`,
	`{"id":"\ud83d\u0041"}`, `{"id":"\ud83dx"}`, `{"id":"\uD83D\uDE00\uFFFD"}`, `{"id":"é世😀 \u2028"}`,
	"{\"id\":\"a\xffb\xc3\"}", "{\"id\":\"\xed\xa0\x80\"}", "{\"id\":\"\xc3\xa9ok\"}", "{\"a\xff\":1}", "{\"id\":\"\x7f\"}",
	`{"lines":["", " ", "\u0000", "\\u0041"]}`,
	// Integers only for max_n.
	`{"max_n":0}`, `{"max_n":-0}`, `{"max_n":-3}`, `{"max_n":9223372036854775807}`, `{"max_n":-9223372036854775808}`,
	`{"max_n":9223372036854775808}`, `{"max_n":-9223372036854775809}`, `{"max_n":92233720368547758070}`,
	`{"max_n":1.0}`, `{"max_n":1e2}`, `{"max_n":01}`, `{"max_n":-}`, `{"max_n":"3"}`, `{"max_n":+1}`, `{"max_n":1 }`, `{"max_n":.5}`,
	// Type mismatches.
	`[]`, `5`, `"x"`, `true`, `{"requests":{}}`, `{"requests":[[]]}`, `{"requests":[5]}`, `{"id":5}`, `{"id":["a"]}`,
	`{"lines":"x"}`, `{"lines":[5]}`, `{"lines":[["a"]]}`, `{"session":[]}`, `{"session":"q"}`, `{"session":{"docs":"a"}}`,
	`{"session":{"clicks":[1]}}`, `{"session":{"clicks":["true"]}}`, `{"session":{"query":5}}`, `{"requests":[true]}`,
	// Unknown fields.
	`{"nope":1}`, `{"requests":[{"nope":1}]}`, `{"requests":[{"session":{"nope":1}}]}`, `{"requests":[],"more":null}`, `{"":1}`,
	// Syntax.
	``, ` `, `{`, `{"requests"`, `{"requests":`, `{"requests":[`, `{"requests":[{`, `{"requests":[{}`, `{"requests":[{}]`,
	`{"requests":[{},]}`, `{"requests":[,{}]}`, `{"requests":[{}],}`, `{,}`, `{"id" "a"}`, `{"id":"a" "model":"b"}`, `{id:"a"}`,
	`{'id':'a'}`, `{"id":"a}`, `{"id":"a\"}`, `{"id":"\x"}`, `{"id":"\u12"}`, `{"id":"\u12G4"}`, `{"id":"\'"}`, "{\"id\":\"a\nb\"}",
	"{\"id\":\"a\tb\"}", `{"id":nul}`, `{"id":nullx}`, `{"id":NULL}`, `{"session":{"clicks":[tru]}}`, `{"session":{"clicks":[True]}}`,
	`{"session":{"clicks":[truefalse]}}`, "\ufeff{}", "{}\x00", `{"requests":[]]`, `nul`, `nulll`, "\t\r\n {\n\"id\"\t:\r\"a\"\n}\n",
	// The tightenings: trailing data, duplicate keys.
	`{"requests":[]}{"junk":1}`, `{"requests":[]} trailing`, `{}{}`, `{} null`, `null null`, `{}]`, `{},`,
	`{"requests":[],"requests":[]}`, `{"requests":[{"id":"a","id":"b"}]}`, `{"requests":[{"id":"a","ID":"b"}]}`,
	`{"requests":[{"session":{"query":"a"},"session":{"docs":[]}}]}`, `{"requests":[{"session":{"docs":[],"docs":null}}]}`,
	`{"requests":[{"lines":null,"lines":null}]}`, `{"requests":null,"Requests":null}`, `{"id":"a","\u0069d":"b"}`,
}

// TestScannerMatchesOracle runs the differential property over the
// seed table, and pins a few outcomes by hand so that the table is not
// vacuously all-reject.
func TestScannerMatchesOracle(t *testing.T) {
	c := new(scoreCodec)
	for _, doc := range decodeSeeds {
		checkAgainstOracle(t, c, []byte(doc), maxBatchItems)
	}

	accept := map[string]int{
		`null`: 0, `{}`: 0, `{"requests":[null,{}]}`: 2, `{"REQUESTS":[{"ID":"a"}]}`: 1,
		`{"reque` + "\u017f" + `ts":[{}]}`: 1, "{\"requests\":[{\"id\":\"a\xffb\"}]}": 1,
	}
	for doc, n := range accept {
		if reqs, ok := scanBatch(c, []byte(doc), maxBatchItems); !ok || len(reqs) != n {
			t.Errorf("%q: ok=%v with %d requests (%s), want accepted with %d", doc, ok, len(reqs), c.errMsg, n)
		}
	}
	for _, doc := range []string{`{"requests":[]}{"junk":1}`, `{"requests":[]} trailing`, `{"requests":[],"requests":[]}`, `{"nope":1}`, ``} {
		if _, ok := scanBatch(c, []byte(doc), maxBatchItems); ok || c.status != http.StatusBadRequest {
			t.Errorf("%q: ok=%v status %d, want a 400", doc, ok, c.status)
		}
	}
	got, ok := scanOne(c, []byte(`{"id":"\ud83d\ude00\ud83d","lines":["a\\b"],"session":{"docs":["d"],"clicks":[null]},"max_n":-0}`))
	want := engine.Request{ID: "😀\ufffd", Lines: []string{`a\b`}, Session: &clickmodel.Session{Docs: []string{"d"}, Clicks: []bool{false}}}
	if !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("scanOne: ok=%v %s, want %s", ok, dump(got), dump(want))
	}
}

// TestFoldsToMatchesEqualFold: key matching is bytes.EqualFold — what
// encoding/json's folded field lookup amounts to — checked for every
// field name with each of its letters replaced by every rune of the
// planes where case folding lives, plus truncations and extensions.
func TestFoldsToMatchesEqualFold(t *testing.T) {
	for _, fields := range [][]string{batchFields, requestFields, sessionFields} {
		for _, name := range fields {
			keys := []string{"", name, strings.ToUpper(name), name[:len(name)-1], name + "s", name + "\u017f"}
			for i := range name {
				for r := rune(0); r < 0x3000; r++ {
					keys = append(keys, name[:i]+string(r)+name[i+1:])
				}
			}
			for _, key := range keys {
				if got, want := foldsTo([]byte(key), name), bytes.EqualFold([]byte(key), []byte(name)); got != want {
					t.Fatalf("foldsTo(%q, %q) = %v, bytes.EqualFold says %v", key, name, got, want)
				}
			}
		}
	}
}

// boundaryStrings are string contents — what stands between the quotes
// — for the word-at-a-time string scan: every length from 0 to 24, of
// filler letters that differ by offset, and the same with each of these
// at every offset: a raw quote (the string ends there), a backslash
// alone (an escape with the next letter, valid or not) and in whole
// escapes, the two ends of the control range, 0x7F, valid UTF-8 of two,
// three and four bytes, and invalid UTF-8 (a lone continuation byte,
// 0xFF, a truncated lead, an encoded surrogate).
func boundaryStrings() []string {
	stops := []string{`"`, `\`, `\"`, `\\`, `\n`, `é`, "\x00", "\x1f", "\x7f",
		"é", "世", "😀", "\x80", "\xff", "\xc3", "\xed\xa0\x80"}
	var out []string
	for n := 0; n <= 24; n++ {
		filler := make([]byte, n)
		for i := range filler {
			filler[i] = 'a' + byte(i)
		}
		out = append(out, string(filler))
		for _, stop := range stops {
			for at := 0; at+len(stop) <= n; at++ {
				out = append(out, string(filler[:at])+stop+string(filler[at+len(stop):]))
			}
		}
	}
	return out
}

// TestStringScanBoundaries: the string scan reads eight bytes a step
// and hands over to the byte loop at the first stop. Every boundary
// string, as a request's id and with and without whitespace after the
// document (so that the string's last word is read whole, or by the
// byte loop), decodes as encoding/json decodes it; a control byte is
// reported at its own offset, and a raw quote ends the string where it
// stands.
func TestStringScanBoundaries(t *testing.T) {
	const head = `{"id":"`
	c := new(scoreCodec)
	for _, s := range boundaryStrings() {
		for _, pad := range []string{"", "         "} {
			doc := head + s + `"}` + pad
			var want engine.Request
			werr := oracleDecode([]byte(doc), &want)
			got, ok := scanOne(c, []byte(doc))
			if (werr == nil) != ok || ok && got.ID != want.ID {
				t.Fatalf("%q: scanner ok=%v id %q (%s at %d), oracle %q, %v", doc, ok, got.ID, c.errMsg, c.errPos, want.ID, werr)
			}
			if i := strings.IndexAny(s, "\x00\x1f"); i >= 0 && c.errPos != len(head)+i {
				t.Fatalf("%q: the control byte at %d was reported at %d (%s)", doc, len(head)+i, c.errPos, c.errMsg)
			}
			if i := strings.IndexByte(s, '"'); i >= 0 && !strings.Contains(s, `\"`) && c.errPos != len(head)+i+1 {
				t.Fatalf("%q: the string did not end at the raw quote at %d: the scan stopped at %d (%s)", doc, len(head)+i, c.errPos, c.errMsg)
			}
		}
	}
}

// FuzzDecodeScoreBatch: for every input, oracle and scanner both
// reject, or both accept with DeepEqual requests — as a batch body and
// as a single-request body.
func FuzzDecodeScoreBatch(f *testing.F) {
	for _, doc := range decodeSeeds {
		f.Add([]byte(doc))
	}
	for _, s := range boundaryStrings() {
		f.Add([]byte(`{"requests":[{"id":"` + s + `"}]}`))
	}
	c := new(scoreCodec)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, c, body, 64)
	})
}

// oracleEncode is json.Encoder as writeJSON configures it.
func oracleEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkAppender compares the appender with the oracle on one response,
// alone and inside a batch; an unencodable float fails both the same
// way.
func checkAppender(t testing.TB, c *scoreCodec, resp engine.Response) {
	t.Helper()
	want, werr := oracleEncode(resp)
	got := appendResponse(nil, &resp)
	if (werr == nil) != (got != nil) {
		t.Fatalf("%+v: oracle error %v, appender %q", resp, werr, got)
	}
	if werr == nil && string(got)+"\n" != string(want) {
		t.Fatalf("single\nappender %s\noracle   %s", got, want)
	}

	c.resps = append(c.resps[:0], resp, engine.Response{ID: "plain", CTR: 0.25}, resp)
	c.status = 0
	c.encodeBatch()
	want, werr = oracleEncode(batchResponse{Responses: c.resps})
	if (werr == nil) != (c.status == 0) {
		t.Fatalf("%+v: oracle error %v, batch appender status %d", resp, werr, c.status)
	}
	if werr == nil && string(c.out) != string(want) {
		t.Fatalf("batch\nappender %soracle   %s", c.out, want)
	}
}

var appendSeeds = []engine.Response{
	{},
	{ID: "s1", Model: "pbm", ModelVersion: 1, CTR: 0.31622776601683794, Positions: []float64{0.5, 0.25, 1e-7, 0}},
	{ID: "m1", Model: "micro", ModelVersion: 12, CTR: 0.7, Score: -1.25},
	{ID: "bad", Model: "ghost", Error: `engine: no such model: unknown model "ghost" (installed: micro, pbm)`},
	{ID: "a\"b\\c\n\r\t\b\f\x00\x1f\x7f<>&é世😀\u2028\u2029\xff\xc3", Model: "\xed\xa0\x80", Error: "\ufffd"},
	{CTR: 1e-6, Score: 9.999999e-7}, {CTR: 1e21, Score: 9.99e20}, {CTR: 1e-9, Score: 1e-10}, {CTR: 1e100, Score: -1e-300},
	{CTR: math.Copysign(0, -1), Score: math.Copysign(0, -1)}, {CTR: 5e-324, Score: math.MaxFloat64},
	{CTR: math.NaN()}, {Score: math.Inf(1)}, {Positions: []float64{0.5, math.Inf(-1)}}, {ModelVersion: -3, Positions: []float64{}},
}

// TestAppenderMatchesOracle: byte identity on the seed responses and on
// what the engine really answers to the handler tests' requests.
func TestAppenderMatchesOracle(t *testing.T) {
	c := new(scoreCodec)
	for _, resp := range appendSeeds {
		checkAppender(t, c, resp)
	}
	_, eng, sessions := newTestServer(t)
	reqs := []engine.Request{
		{ID: "s1", Model: "pbm", Session: &sessions[250]},
		{ID: "m1", Model: "micro", Lines: []string{"Acme", "Find cheap flights"}},
		{ID: "micro", Lines: []string{"Find cheap flights"}},
		{ID: "bad", Model: "ghost", Lines: []string{"x"}},
		{Model: "pbm"},
		{Model: "pbm@9", Session: &sessions[0]},
	}
	for _, resp := range eng.ScoreBatch(context.Background(), reqs) {
		checkAppender(t, c, resp)
	}
}

// FuzzAppendResponses: appender bytes == json.Encoder bytes for
// arbitrary strings and float bit patterns; NaN and ±Inf fail both.
func FuzzAppendResponses(f *testing.F) {
	for _, r := range appendSeeds {
		var p0, p1 float64
		if len(r.Positions) > 0 {
			p0 = r.Positions[0]
		}
		if len(r.Positions) > 1 {
			p1 = r.Positions[1]
		}
		f.Add(r.ID, r.Model, r.Error, r.ModelVersion, math.Float64bits(r.CTR), math.Float64bits(r.Score),
			uint8(len(r.Positions)), math.Float64bits(p0), math.Float64bits(p1))
	}
	c := new(scoreCodec)
	f.Fuzz(func(t *testing.T, id, model, errText string, version int, ctr, score uint64, npos uint8, p0, p1 uint64) {
		resp := engine.Response{ID: id, Model: model, Error: errText, ModelVersion: version,
			CTR: math.Float64frombits(ctr), Score: math.Float64frombits(score)}
		for i := 0; i < int(npos%4); i++ {
			resp.Positions = append(resp.Positions, math.Float64frombits([]uint64{p0, p1}[i%2]))
		}
		checkAppender(t, c, resp)
	})
}

// cycleBody is a /v1/score/batch body of n requests cycling micro and
// session evidence, the shape of the MBSP zero-alloc test's frames.
func cycleBody(t testing.TB, n int, sessions []clickmodel.Session) []byte {
	t.Helper()
	var req batchRequest
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			req.Requests = append(req.Requests, engine.Request{ID: fmt.Sprint("s", i), Model: "pbm", Session: &sessions[i]})
		} else {
			req.Requests = append(req.Requests, engine.Request{ID: fmt.Sprint("m", i), Lines: []string{"Acme Air", "Find cheap flights to Rome", `Great "rates"`}})
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestScoreCycleZeroAlloc pins the //mb:noalloc annotations of the
// codec — scoreBatchCycle, scoreCycle, decodeBatch, decodeOne,
// encodeBatch, appendResponse — with testing.AllocsPerRun: on a warm
// codec the whole JSON decode→score→encode cycle allocates nothing, for
// 3- and 64-request bodies of micro and session evidence (one line with
// an escape, so the side arena is in play), traced or not.
func TestScoreCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates defer records; alloc counts only hold uninstrumented")
	}
	sessions := testSessions(300)
	eng := engine.New(engine.WithWorkers(4))
	if _, err := eng.Fit("pbm", mustCompile(t, sessions[:200]), 5); err != nil {
		t.Fatal(err)
	}
	eng.UseMicro(testMicroModel())
	s := New(eng, nil)
	ctx := context.Background()
	for _, ti := range []*traceInfo{nil, new(traceInfo)} {
		for _, size := range []int{3, 64} {
			c := codecOver(cycleBody(t, size, sessions))
			cycle := func() {
				s.scoreBatchCycle(ctx, c, ti, time.Time{})
				if c.status != 0 || len(c.resps) != size || c.resps[size-1].Error != "" {
					t.Fatalf("cycle failed: status %d %q, %d responses", c.status, c.errMsg, len(c.resps))
				}
				if ti != nil {
					ti.n = 0
				}
			}
			for i := 0; i < 4; i++ { // warm the arenas
				cycle()
			}
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Errorf("warm batch cycle of %d requests (traced: %v) allocates %v/op, want 0", size, ti != nil, allocs)
			}
		}
	}

	for _, body := range []string{
		`{"id":"m1","model":"micro","lines":["Acme","Find \"cheap\" flights"]}`,
		`{"id":"s1","model":"pbm","session":{"query":"q","docs":["a","b","c"],"clicks":[true,false,false]}}`,
	} {
		c := codecOver([]byte(body))
		cycle := func() {
			if status := s.scoreCycle(ctx, c, nil, time.Time{}); status != http.StatusOK {
				t.Fatalf("single cycle: status %d / %d %q", status, c.status, c.errMsg)
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("warm single cycle of %s allocates %v/op, want 0", body, allocs)
		}
	}
}

// post sends raw bytes and returns the status and the reply body.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestBodyTightenings: on every JSON route a body is one value — data
// after it is a 400 — and on the routes the scanner serves (the two
// score routes and feedback) a key appears once per object. Each
// rejected body is paired with its accepted twin, and every rejection
// has the one error-body shape.
func TestBodyTightenings(t *testing.T) {
	ts, _, _, _ := newOnlineServer(t)
	sess := `{"query":"q","docs":["a","b"],"clicks":[true,false]}`
	routes := []struct {
		path, ok string
		okStatus int
		dups     []string // bodies that differ from ok by a repeated key
	}{
		{"/v1/score", `{"model":"micro","lines":["Find cheap flights"]}`, http.StatusOK, []string{
			`{"model":"micro","lines":["Find cheap flights"],"model":"micro"}`,
			`{"model":"micro","lines":["Find cheap flights"],"LINES":["x"]}`,
			`{"model":"pbm","session":{"query":"q"},"session":{"docs":["a"],"clicks":[true]}}`,
			`{"model":"pbm","session":{"query":"q","docs":["a"],"docs":["a"],"clicks":[true]}}`,
		}},
		{"/v1/score/batch", `{"requests":[{"lines":["Find cheap flights"]}]}`, http.StatusOK, []string{
			`{"requests":[{"lines":["Find cheap flights"]}],"requests":[]}`,
			`{"requests":[{"lines":["Find cheap flights"],"id":"a","id":"a"}]}`,
		}},
		{"/v1/optimize", `{"model":"micro","lines":["Find cheap flights"],"candidates":[["Find cheap hotels"]]}`, http.StatusOK, nil},
		{"/v1/feedback", `{"session":` + sess + `}`, http.StatusOK, []string{
			`{"session":` + sess + `,"session":` + sess + `}`,
			`{"session":` + sess + `,"SESSION":null}`,
			`{"session":{"query":"q","docs":["a","b"],"clicks":[true,false],"docs":["a","b"]}}`,
			`{"session":` + sess + `,"snippets":[{"lines":["x"],"impressions":2,"clicks":1,"Clicks":1}]}`,
		}},
	}
	for _, rt := range routes {
		if code, body := post(t, ts.URL+rt.path, rt.ok+" \n"); code != rt.okStatus {
			t.Fatalf("%s: the accepted twin got %d: %s", rt.path, code, body)
		}
		bad := append([]string{rt.ok + `{"junk":1}`, rt.ok + ` trailing`, rt.ok + rt.ok, rt.ok + `]`}, rt.dups...)
		for _, doc := range bad {
			code, body := post(t, ts.URL+rt.path, doc)
			var eb errorBody
			if err := json.Unmarshal([]byte(body), &eb); code != http.StatusBadRequest || err != nil || !strings.HasPrefix(eb.Error, "bad request body: ") {
				t.Errorf("%s %s: got %d %s, want a 400 error body", rt.path, doc, code, body)
			}
		}
	}
}

// TestBatchLimitStopsTheScan: the request past maxBatchItems answers
// 413 without being scanned or added — the arena holds at most the cap
// when the scan stops, however much body follows, and what follows is
// never looked at (it is not even JSON here).
func TestBatchLimitStopsTheScan(t *testing.T) {
	body := `{"requests":[` + strings.Repeat(`{},`, maxBatchItems) + `{}` + strings.Repeat(`,{}`, maxBatchItems) + `, this is never scanned`
	c := new(scoreCodec)
	if _, ok := scanBatch(c, []byte(body), maxBatchItems); ok || c.status != http.StatusRequestEntityTooLarge {
		t.Fatalf("ok=%v status %d %q, want a 413", ok, c.status, c.errMsg)
	}
	if n := c.batch.Len(); n > maxBatchItems+1 {
		t.Errorf("the arena holds %d requests after the 413, want at most %d", n, maxBatchItems+1)
	}
	if want := len(`{"requests":[`) + 3*maxBatchItems; c.errPos != want {
		t.Errorf("the scan stopped at offset %d, want %d (the first request past the limit)", c.errPos, want)
	}
	if _, ok := scanBatch(c, []byte(`{"requests":[`+strings.Repeat(`{},`, maxBatchItems-1)+`{}]}`), maxBatchItems); !ok {
		t.Errorf("a batch of exactly the limit was rejected: %d %q", c.status, c.errMsg)
	}

	ts, _, _ := newTestServer(t)
	code, reply := post(t, ts.URL+"/v1/score/batch", body)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(reply, "limit; split it") {
		t.Errorf("over the wire: %d %s", code, reply)
	}
}

// TestOutsizedCodecIsNotPooled: putCodec pools a codec only while the
// buffers it keeps from one request to the next hold at most
// maxPooledEncodeBuf bytes between them, so one giant batch cannot pin
// its memory. The check is size, read here directly: every buffer past
// the bound alone, buffers under it alone and past it together, and the
// case a per-buffer check missed — a batch of bare requests whose arena
// stays under the bound while its responses do not.
func TestOutsizedCodecIsNotPooled(t *testing.T) {
	const bound = maxPooledEncodeBuf
	past := func(elem uintptr) int { return bound/int(elem) + 1 }
	grown := map[string]func(c *scoreCodec){
		"body":    func(c *scoreCodec) { c.body = make([]byte, 0, bound+1) },
		"esc":     func(c *scoreCodec) { c.esc = make([]byte, 0, bound+1) },
		"out":     func(c *scoreCodec) { c.out = make([]byte, 0, bound+1) },
		"resps":   func(c *scoreCodec) { c.resps = make([]engine.Response, 0, past(unsafe.Sizeof(engine.Response{}))) },
		"counts":  func(c *scoreCodec) { c.feedback.counts = make([][2]int, 0, past(unsafe.Sizeof([2]int{}))) },
		"events":  func(c *scoreCodec) { c.feedback.events = make([]stream.Event, 0, past(unsafe.Sizeof(stream.Event{}))) },
		"records": func(c *scoreCodec) { c.feedback.records = make([]wal.Record, 0, past(unsafe.Sizeof(wal.Record{}))) },
	}
	for name, grow := range grown {
		c := new(scoreCodec)
		grow(c)
		if c.size() <= bound {
			t.Errorf("a codec whose %s holds past %d bytes reports %d", name, bound, c.size())
		}
	}

	together := new(scoreCodec)
	together.body = make([]byte, 0, bound/2+1)
	together.out = make([]byte, 0, bound/2+1)
	if together.size() <= bound {
		t.Errorf("two buffers of half the bound and a little more report %d bytes in all", together.size())
	}

	if _, ok := scanBatch(together, []byte(`{"requests":[`+strings.Repeat(`{"lines":["a","b"]},`, maxBatchItems-1)+`{}]}`), maxBatchItems); !ok {
		t.Fatal("the arena-filling batch was rejected")
	}
	if arena := together.batch.Size(); arena <= bound || together.size() < arena {
		t.Fatalf("a %d-request arena reports %d bytes, the codec %d; the test needs the arena past %d", maxBatchItems, arena, together.size(), bound)
	}

	bare := new(scoreCodec)
	if _, ok := scanBatch(bare, []byte(`{"requests":[`+strings.Repeat(`{"model":"micro"},`, maxBatchItems-1)+`{}]}`), maxBatchItems); !ok {
		t.Fatal("the batch of bare requests was rejected")
	}
	bare.body, bare.resps = nil, make([]engine.Response, maxBatchItems)
	if arena := bare.batch.Size(); arena > bound || bare.size() <= bound {
		t.Errorf("bare requests: the arena holds %d bytes and the codec %d; want the arena under %d and the codec past it", arena, bare.size(), bound)
	}

	warm := codecOver(cycleBody(t, 64, testSessions(300)))
	if !warm.decodeBatch(maxBatchItems) {
		t.Fatal(warm.errMsg)
	}
	warm.resps = make([]engine.Response, 64)
	warm.encodeBatch()
	if warm.size() > bound {
		t.Errorf("a codec that served a 64-request batch holds %d bytes, past the %d a pooled one may", warm.size(), bound)
	}
}

// TestBodyStringsDoNotOutliveTheHandler is the lifetime rule end to
// end: request strings are views of the pooled body buffer, so once the
// handler has returned, nothing may still point into it. The test lets
// a traced request finish, overwrites every buffer of the codec that
// served it, and checks that the trace entry and the reply the client
// was sent are intact.
func TestBodyStringsDoNotOutliveTheHandler(t *testing.T) {
	_, eng, _ := newTestServer(t)
	ring := obs.NewTraceRing(8, 0) // threshold 0: every request is traced
	s := New(eng, nil, WithTracing(ring))
	body := `{"requests":[{"id":"view-of-the-body","model":"micro","lines":["Find cheap flights"]},{"id":"esc\"aped","model":"micro","lines":["x"]}]}`

	var c *scoreCodec
	var rec *httptest.ResponseRecorder
	for attempt := 0; ; attempt++ {
		// Hand the handler a codec this test keeps a pointer to. (Under
		// the race detector sync.Pool drops some Puts; try again then.)
		c = new(scoreCodec)
		codecPool.Put(c)
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score/batch", strings.NewReader(body)))
		if string(c.body) == body {
			break
		}
		if attempt == 50 {
			t.Skip("the pool never handed the handler this test's codec")
		}
	}
	want := rec.Body.String()
	for _, buf := range [][]byte{c.body[:cap(c.body)], c.esc[:cap(c.esc)], c.out[:cap(c.out)]} {
		for i := range buf {
			buf[i] = 0xAA
		}
	}

	if got := rec.Body.String(); got != want || !strings.Contains(got, `"id":"view-of-the-body"`) || !strings.Contains(got, `"id":"esc\"aped"`) {
		t.Errorf("the reply changed with the codec's buffers:\n%s\n%s", got, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
		t.Errorf("Content-Length %q for a %d-byte reply", cl, len(want))
	}
	traces := ring.Snapshot()
	if len(traces) == 0 {
		t.Fatal("the request was not traced")
	}
	if tr := traces[len(traces)-1]; tr.Model != "micro" || tr.Items != 2 || tr.Kind != "score_batch" {
		t.Errorf("trace after the buffers were overwritten: %+v", tr)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if !strings.Contains(rec.Body.String(), `"model":"micro"`) {
		t.Errorf("/debug/traces lost the model: %s", rec.Body.String())
	}
}
