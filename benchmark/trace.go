package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// span is one interval at a layer boundary. Spans of one request share
// Req. Parent names the span that caused this one ("" for a root).
//
// Two families land in a trace file. Client spans come from the traced
// closed phase against the real server: client.request is the root and
// client.encode, client.wire, client.decode tile it exactly. Replay
// spans come from the in-process replay: the benchmark calls each
// layer's public function on the same sampled request one after the
// other, so a child is a separate call on the same input rather than an
// interval inside its parent's; a layer's self time is therefore its
// duration minus its children's durations.
type span struct {
	Name   string
	Parent string
	Req    string
	Start  time.Time
	End    time.Time
}

// replayParents is the layer hierarchy of the replay spans.
var replayParents = map[string]string{
	"binproto.serve":        "",
	"server.handle":         "",
	"server.feedback":       "",
	"server.json_decode":    "server.handle",
	"server.json_encode":    "server.handle",
	"engine.batch":          "binproto.serve",
	"engine.candidates":     "binproto.serve",
	"engine.topk":           "binproto.serve",
	"core.score":            "engine.batch",
	"core.candidates":       "engine.candidates",
	"textproc.candset":      "core.candidates",
	"textproc.lookup":       "core.score",
	"textproc.tokenize":     "textproc.lookup",
	"stream.ingest":         "server.feedback",
	"wal.append":            "stream.ingest",
	"clickmodel.clickprobs": "",
	// binproto.serve is the client's whole call over a pipe, so the
	// client's codec is one of its children; the codec span's self time
	// is the client's decode.
	"binproto.client_codec":  "binproto.serve",
	"binproto.client_encode": "binproto.client_codec",
}

func replayReq(i int) string { return "replay-" + strconv.Itoa(i) }

// maxTracedRequests bounds the client requests written to a trace
// file; the statistics in the report always cover all of them.
const maxTracedRequests = 20000

type traceSpan struct {
	Name     string  `json:"name"`
	Parent   string  `json:"parent,omitempty"`
	Req      string  `json:"req"`
	StartUS  float64 `json:"start_us"` // since the trace's first span
	DurUS    float64 `json:"dur_us"`
	SelfUS   float64 `json:"self_us"`
	Children int     `json:"children,omitempty"`
}

type traceFile struct {
	Workload       string      `json:"workload"`
	ClientRequests int         `json:"client_requests_total"`
	ClientWritten  int         `json:"client_requests_written"`
	ReplayRequests int         `json:"replay_requests"`
	Note           string      `json:"note"`
	Spans          []traceSpan `json:"spans"`
}

// writeTrace writes benchmark/out/trace-<workload>.json from the
// in-memory spans: the traced phase's client requests and the replay's
// layer calls.
func writeTrace(outDir, workload string, client []requestSpan, replay []span) (string, error) {
	var spans []span
	written := len(client)
	if written > maxTracedRequests {
		written = maxTracedRequests
	}
	for _, c := range client[:written] {
		req := c.lane + "-" + strconv.Itoa(c.seq)
		spans = append(spans,
			span{Name: "client.request", Req: req, Start: c.t.start, End: c.t.done},
			span{Name: "client.encode", Parent: "client.request", Req: req, Start: c.t.start, End: c.t.encoded},
			span{Name: "client.wire", Parent: "client.request", Req: req, Start: c.t.encoded, End: c.t.received},
			span{Name: "client.decode", Parent: "client.request", Req: req, Start: c.t.received, End: c.t.done},
		)
	}
	replayReqs := map[string]bool{}
	for _, s := range replay {
		s.Parent = replayParents[s.Name]
		spans = append(spans, s)
		replayReqs[s.Req] = true
	}
	if len(spans) == 0 {
		return "", nil
	}

	// Self time: a span's duration minus its children's, children being
	// the spans of the same request that name it as parent.
	type key struct{ req, name string }
	childDur := map[key]time.Duration{}
	childN := map[key]int{}
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Req, s.Parent}
			childDur[k] += s.End.Sub(s.Start)
			childN[k]++
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	origin := spans[0].Start
	tf := traceFile{
		Workload: workload, ClientRequests: len(client), ClientWritten: written, ReplayRequests: len(replayReqs),
		Note: "client.* spans are wall-clock intervals against the real server; replay spans are separate calls " +
			"on the same sampled request, so self_us = dur_us - sum(children dur_us), not interval coverage",
	}
	for _, s := range spans {
		k := key{s.Req, s.Name}
		dur := s.End.Sub(s.Start)
		tf.Spans = append(tf.Spans, traceSpan{
			Name: s.Name, Parent: s.Parent, Req: s.Req,
			StartUS: float64(s.Start.Sub(origin)) / 1e3, DurUS: float64(dur) / 1e3,
			SelfUS: float64(dur-childDur[k]) / 1e3, Children: childN[k],
		})
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(&tf); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
