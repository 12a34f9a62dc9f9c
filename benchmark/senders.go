package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server/binproto"
)

// timing marks the four client-side instants of one request: encode
// runs start→encoded, the socket round trip encoded→received, decode
// and answer checking received→done.
type timing struct {
	start, encoded, received, done time.Time
}

// sender owns one connection and one request stream. do issues request
// number i of the stream, checks the reply, and reports how many ops
// the request carried and how many of them failed (transport error,
// non-2xx or error frame, refused or dropped, wrong answer).
type sender interface {
	do(i int) (t timing, ops, failed int)
	close()
}

// failLog keeps the first few failure reasons so a non-zero failed
// count can be diagnosed from the report.
type failLog struct {
	mu   sync.Mutex
	msgs []string
	n    int
}

func (l *failLog) add(format string, args ...any) {
	l.mu.Lock()
	l.n++
	if len(l.msgs) < 8 {
		l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// refTol is the answer-checking tolerance against the in-process
// reference (the parity the repo pins compiled scoring at).
const refTol = 1e-12

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= refTol*math.Max(1, math.Abs(want))
}

func validCTR(v float64) bool { return v >= 0 && v <= 1 } // false for NaN

// versionGuard checks that the model version a connection observes
// never goes backwards. Within one frame the engine's strands may
// resolve at different instants, so the rule is across frames: every
// version in a frame must be at least the highest seen in earlier
// frames on this connection.
type versionGuard struct {
	prevMax, curMin, curMax int
}

func (g *versionGuard) begin() { g.curMin, g.curMax = math.MaxInt, 0 }

func (g *versionGuard) see(v int) {
	if v < g.curMin {
		g.curMin = v
	}
	if v > g.curMax {
		g.curMax = v
	}
}

// end reports whether the frame respected monotonicity and folds it
// into the running maximum.
func (g *versionGuard) end() bool {
	if g.curMax == 0 {
		return true // model not seen in this frame
	}
	ok := g.curMin >= g.prevMax
	if g.curMax > g.prevMax {
		g.prevMax = g.curMax
	}
	return ok
}

// scoreChecker validates one score reply batch against its request
// batch: count, ID echo, model name, version present and monotone,
// CTR in [0,1], no error, macro positions well-formed and — when the
// workload is read-only — CTR and score equal to the reference.
type scoreChecker struct {
	micro, macro versionGuard
	fails        *failLog
}

func (ck *scoreChecker) begin() { ck.micro.begin(); ck.macro.begin() }

// item checks reply j; ref is nil on workloads whose model changes.
func (ck *scoreChecker) item(req *engine.Request, ref *core.CandidateScore, id, model, errMsg string, version int, ctr, score float64, positions int, posOK bool) bool {
	switch {
	case id != req.ID:
		ck.fails.add("reply id %q does not echo request id %q", id, req.ID)
	case errMsg != "":
		ck.fails.add("request %s: server error %q", req.ID, errMsg)
	case model != req.Model:
		ck.fails.add("request %s: answered by model %q, asked %q", req.ID, model, req.Model)
	case version < 1:
		ck.fails.add("request %s: model_version missing", req.ID)
	case !validCTR(ctr):
		ck.fails.add("request %s: ctr %v outside [0,1]", req.ID, ctr)
	case req.Session != nil && (positions != len(req.Session.Docs) || !posOK):
		ck.fails.add("request %s: %d positions for %d docs (in range: %v)", req.ID, positions, len(req.Session.Docs), posOK)
	case ref != nil && (!closeTo(ctr, ref.CTR) || !closeTo(score, ref.Score)):
		ck.fails.add("request %s: ctr %v score %v, reference %v %v", req.ID, ctr, score, ref.CTR, ref.Score)
	default:
		if req.Session != nil {
			ck.macro.see(version)
		} else {
			ck.micro.see(version)
		}
		return true
	}
	return false
}

// one checks reply j of a frame in its decoded form, which the MBSP
// client and the JSON reply body share.
func (ck *scoreChecker) one(req *engine.Request, ref []core.CandidateScore, j int, rp *engine.Response) bool {
	posOK := true
	for _, p := range rp.Positions {
		if !validCTR(p) {
			posOK = false
		}
	}
	var rf *core.CandidateScore
	if ref != nil {
		rf = &ref[j]
	}
	return ck.item(req, rf, rp.ID, rp.Model, rp.Error, rp.ModelVersion, rp.CTR, rp.Score, len(rp.Positions), posOK)
}

// end closes the frame; false means a model version went backwards,
// which fails the whole frame.
func (ck *scoreChecker) end() bool {
	okMicro, okMacro := ck.micro.end(), ck.macro.end()
	if !okMicro || !okMacro {
		ck.fails.add("model_version went backwards (micro ok %v, macro ok %v)", okMicro, okMacro)
		return false
	}
	return true
}

// mbspScoreSender sends MBSP score frames (score_mbsp, and connection
// B of mixed_online).
type mbspScoreSender struct {
	conn   mbspConn
	frames [][]engine.Request
	refs   [][]core.CandidateScore // nil: structural checks only
	ck     scoreChecker
}

func (s *mbspScoreSender) close() { s.conn.close() }

func (s *mbspScoreSender) do(i int) (t timing, ops, failed int) {
	f := i % len(s.frames)
	reqs := s.frames[f]
	ops = len(reqs)
	t.start = time.Now()
	cli, err := s.conn.client()
	var resps []engine.Response
	if err == nil {
		resps, err = cli.ScoreBatch(reqs)
	}
	s.conn.stamp(&t)
	if err != nil {
		s.ck.fails.add("score frame: %v", err)
		s.conn.close()
		failed = ops
	} else {
		var ref []core.CandidateScore
		if s.refs != nil {
			ref = s.refs[f]
		}
		failed = s.check(reqs, ref, resps)
	}
	t.done = time.Now()
	return t, ops, failed
}

func (s *mbspScoreSender) check(reqs []engine.Request, ref []core.CandidateScore, resps []engine.Response) (failed int) {
	if len(resps) != len(reqs) {
		s.ck.fails.add("score reply carries %d responses for %d requests", len(resps), len(reqs))
		return len(reqs)
	}
	s.ck.begin()
	for j := range reqs {
		if !s.ck.one(&reqs[j], ref, j, &resps[j]) {
			failed++
		}
	}
	if !s.ck.end() {
		return len(reqs)
	}
	return failed
}

// jsonScoreSender posts the same request stream as JSON batches.
type jsonScoreSender struct {
	conn   httpConn
	frames [][]engine.Request
	refs   [][]core.CandidateScore
	ck     scoreChecker
	enc    jsonEncoder
	reply  scoreReplyBody
}

// jsonEncoder is a reusable encode buffer, mirroring the server's own
// pooled encoder (HTML escaping off).
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func (e *jsonEncoder) encode(v any) ([]byte, error) {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
		e.enc.SetEscapeHTML(false)
	}
	e.buf.Reset()
	err := e.enc.Encode(v)
	return e.buf.Bytes(), err
}

func (s *jsonScoreSender) close() { s.conn.close() }

func (s *jsonScoreSender) do(i int) (t timing, ops, failed int) {
	f := i % len(s.frames)
	reqs := s.frames[f]
	ops = len(reqs)
	t.start = time.Now()
	body, err := s.enc.encode(scoreBody{Requests: reqs})
	t.encoded = time.Now()
	if err != nil {
		s.ck.fails.add("encoding score batch: %v", err)
		t.received, t.done = t.encoded, t.encoded
		return t, ops, ops
	}
	status, respBody, err := s.conn.post("/v1/score/batch", body)
	t.received = time.Now()
	switch {
	case err != nil:
		s.ck.fails.add("POST /v1/score/batch: %v", err)
		failed = ops
	case status != http.StatusOK:
		s.ck.fails.add("POST /v1/score/batch: status %d: %.200s", status, respBody)
		failed = ops
	default:
		failed = s.check(reqs, s.refs[f], respBody)
	}
	t.done = time.Now()
	return t, ops, failed
}

func (s *jsonScoreSender) check(reqs []engine.Request, ref []core.CandidateScore, body []byte) (failed int) {
	s.reply.Responses = s.reply.Responses[:0]
	if err := json.Unmarshal(body, &s.reply); err != nil {
		s.ck.fails.add("score batch reply is not JSON: %v", err)
		return len(reqs)
	}
	if len(s.reply.Responses) != len(reqs) {
		s.ck.fails.add("score batch reply carries %d responses for %d requests", len(s.reply.Responses), len(reqs))
		return len(reqs)
	}
	s.ck.begin()
	for j := range reqs {
		if !s.ck.one(&reqs[j], ref, j, &s.reply.Responses[j]) {
			failed++
		}
	}
	if !s.ck.end() {
		return len(reqs)
	}
	return failed
}

// optimizeSender sends MBSP optimize frames and compares the ranked
// result with the reference ranking. An op is one candidate; a reply
// that disagrees anywhere fails every candidate of its frame.
type optimizeSender struct {
	conn  mbspConn
	reqs  []binproto.OptimizeRequest
	refs  []optExpect
	guard versionGuard
	fails *failLog
}

func (s *optimizeSender) close() { s.conn.close() }

func (s *optimizeSender) do(i int) (t timing, ops, failed int) {
	f := i % len(s.reqs)
	req := &s.reqs[f]
	ops = len(req.Candidates)
	t.start = time.Now()
	cli, err := s.conn.client()
	var res *binproto.OptimizeResult
	if err == nil {
		res, err = cli.Optimize(*req)
	}
	s.conn.stamp(&t)
	switch {
	case err != nil:
		s.fails.add("optimize frame: %v", err)
		s.conn.close()
		failed = ops
	case !s.check(req, &s.refs[f], res):
		failed = ops
	}
	t.done = time.Now()
	return t, ops, failed
}

func (s *optimizeSender) check(req *binproto.OptimizeRequest, exp *optExpect, res *binproto.OptimizeResult) bool {
	if len(res.Ranked) != len(exp.ranked) {
		s.fails.add("optimize %s: %d ranked candidates, reference has %d (server error %q)", req.ID, len(res.Ranked), len(exp.ranked), res.Err)
		return false
	}
	ok := true
	for k, got := range res.Ranked {
		want := &exp.ranked[k]
		if got.Index != want.Index || !validCTR(got.CTR) || !closeTo(got.CTR, want.CTR) || !closeTo(got.Score, want.Score) {
			if ok {
				s.fails.add("optimize %s rank %d: candidate %d ctr %v score %v, reference %d %v %v", req.ID, k, got.Index, got.CTR, got.Score, want.Index, want.CTR, want.Score)
			}
			ok = false
		}
	}
	s.guard.begin()
	switch {
	case res.Err != "":
		s.fails.add("optimize %s: server error %q", req.ID, res.Err)
	case res.ID != req.ID:
		s.fails.add("optimize reply id %q does not echo %q", res.ID, req.ID)
	case res.Model != req.Model:
		s.fails.add("optimize %s: answered by model %q", req.ID, res.Model)
	case res.ModelVersion < 1:
		s.fails.add("optimize %s: model_version missing", req.ID)
	case !validCTR(res.BaseCTR) || !closeTo(res.BaseCTR, exp.base.CTR) || !closeTo(res.BaseScore, exp.base.Score):
		s.fails.add("optimize %s: base ctr %v score %v, reference %v %v", req.ID, res.BaseCTR, res.BaseScore, exp.base.CTR, exp.base.Score)
	case res.Best != exp.best:
		s.fails.add("optimize %s: best %d, reference %d", req.ID, res.Best, exp.best)
	default:
		s.guard.see(res.ModelVersion)
		if !s.guard.end() {
			s.fails.add("optimize %s: model_version went backwards", req.ID)
			return false
		}
		return ok
	}
	return false
}

// feedbackSender posts feedback bodies (connection A of mixed_online).
// An op is one feedback event; events the server did not accept
// (dropped on saturation, rejected as invalid, or lost with a failed
// request) are failed ops.
type feedbackSender struct {
	conn   httpConn
	bodies []feedbackBody
	enc    jsonEncoder
	fails  *failLog
}

func (s *feedbackSender) close() { s.conn.close() }

func (s *feedbackSender) do(i int) (t timing, ops, failed int) {
	fb := &s.bodies[i%len(s.bodies)]
	ops = len(fb.Sessions) + len(fb.Snippets)
	t.start = time.Now()
	body, err := s.enc.encode(fb)
	t.encoded = time.Now()
	if err != nil {
		s.fails.add("encoding feedback body: %v", err)
		t.received, t.done = t.encoded, t.encoded
		return t, ops, ops
	}
	status, respBody, err := s.conn.post("/v1/feedback", body)
	t.received = time.Now()
	var fr feedbackReply
	switch {
	case err != nil:
		s.fails.add("POST /v1/feedback: %v", err)
		failed = ops
	case status != http.StatusOK:
		s.fails.add("POST /v1/feedback: status %d: %.200s", status, respBody)
		failed = ops
	case json.Unmarshal(respBody, &fr) != nil:
		s.fails.add("feedback reply is not JSON: %.200s", respBody)
		failed = ops
	case fr.Accepted != ops:
		s.fails.add("feedback: %d of %d events accepted (%d dropped, %d invalid)", fr.Accepted, ops, fr.Dropped, fr.Invalid)
		failed = ops - fr.Accepted
		if failed < 0 || failed > ops {
			failed = ops
		}
	}
	t.done = time.Now()
	return t, ops, failed
}
