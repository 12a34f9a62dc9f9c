package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/stream"
	"repro/internal/wal"
)

// fakeClock is an injectable time source for limiter unit tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time           { return c.t }
func (c *fakeClock) advance(d time.Duration)  { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func withClock(rl *rateLimiter, c *fakeClock) { rl.now = c.now }

func TestRateLimiterRefill(t *testing.T) {
	clk := newFakeClock()
	rl := newRateLimiter(10, 20) // 10 events/s, burst 20
	withClock(rl, clk)

	if ok, _ := rl.allowN("a", 20); !ok {
		t.Fatal("burst spend rejected")
	}
	ok, retry := rl.allowN("a", 1)
	if ok {
		t.Fatal("empty bucket granted")
	}
	if retry < time.Second {
		t.Fatalf("Retry-After hint %v, want >= 1s", retry)
	}
	// Half a second refills 5 tokens.
	clk.advance(500 * time.Millisecond)
	if ok, _ := rl.allowN("a", 5); !ok {
		t.Fatal("refilled tokens not granted")
	}
	if ok, _ := rl.allowN("a", 1); ok {
		t.Fatal("bucket should be dry again")
	}
	// Other clients have their own budget.
	if ok, _ := rl.allowN("b", 20); !ok {
		t.Fatal("second client shares the first client's bucket")
	}
	if got := rl.metrics().Read(); got["ratelimit.limited"] != 2 || got["ratelimit.clients"] != 2 {
		t.Fatalf("limiter list reads %v", got)
	}
}

func TestRateLimiterSweep(t *testing.T) {
	clk := newFakeClock()
	rl := newRateLimiter(100, 100)
	withClock(rl, clk)
	for i := 0; i < 50; i++ {
		rl.allowN(fmt.Sprintf("c%d", i), 1)
	}
	if rl.size() != 50 {
		t.Fatalf("tracked %d clients, want 50", rl.size())
	}
	// After the refill horizon every bucket is full again and the next
	// scheduled sweep forgets them all.
	clk.advance(2 * time.Minute)
	rl.allowN("fresh", 1)
	if n := rl.size(); n != 1 {
		t.Fatalf("sweep left %d clients, want just the fresh one", n)
	}
}

// TestRateLimiterIdleTTLEviction is the memory-bound test: a client
// whose bucket can never refill to full (slow rate, deep debt) must
// still be evicted once idle past the TTL — otherwise one burst from
// each of an open-ended client population pins map entries for hours.
func TestRateLimiterIdleTTLEviction(t *testing.T) {
	clk := newFakeClock()
	rl := newRateLimiter(0.01, 1000) // full refill takes ~28 hours
	rl.ttl = 5 * time.Minute
	withClock(rl, clk)

	for i := 0; i < 50; i++ {
		rl.allowN(fmt.Sprintf("c%d", i), 1000) // drain each bucket fully
	}
	if rl.size() != 50 {
		t.Fatalf("tracked %d clients, want 50", rl.size())
	}

	// One sweep interval later the buckets are nowhere near refilled
	// and still inside the TTL: nothing may be evicted.
	clk.advance(time.Minute)
	rl.allowN("keepalive", 1)
	if n := rl.size(); n != 51 {
		t.Fatalf("pre-TTL sweep evicted: %d clients, want 51", n)
	}

	// Past the TTL the idle 50 go; the recently-active keepalive and
	// the fresh client stay.
	clk.advance(5 * time.Minute)
	rl.allowN("keepalive", 1)
	if n := rl.size(); n != 1 {
		t.Fatalf("TTL sweep left %d clients, want just keepalive", n)
	}

	// ttl <= 0 disables idle eviction entirely.
	rl2 := newRateLimiter(0.01, 1000)
	rl2.ttl = 0
	clk2 := newFakeClock()
	withClock(rl2, clk2)
	rl2.allowN("x", 1000)
	clk2.advance(24 * time.Hour) // refill completes at ~28h
	rl2.allowN("y", 1)
	if n := rl2.size(); n != 2 {
		t.Fatalf("disabled TTL still evicted: %d clients, want 2", n)
	}
}

// TestWithFeedbackClientTTL pins the option plumbing in either order
// relative to WithFeedbackRateLimit.
func TestWithFeedbackClientTTL(t *testing.T) {
	s := New(engine.New(), nil,
		WithFeedbackClientTTL(42*time.Second),
		WithFeedbackRateLimit(10, 10))
	if s.limiter.ttl != 42*time.Second {
		t.Fatalf("ttl = %v, want 42s (option before limiter)", s.limiter.ttl)
	}
	s = New(engine.New(), nil,
		WithFeedbackRateLimit(10, 10),
		WithFeedbackClientTTL(42*time.Second))
	if s.limiter.ttl != 42*time.Second {
		t.Fatalf("ttl = %v, want 42s (option after limiter)", s.limiter.ttl)
	}
	if s2 := New(engine.New(), nil, WithFeedbackRateLimit(10, 10)); s2.limiter.ttl != defaultClientTTL {
		t.Fatalf("default ttl = %v, want %v", s2.limiter.ttl, defaultClientTTL)
	}
}

func TestClientKey(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/feedback", nil)
	r.RemoteAddr = "10.1.2.3:5555"
	if got := clientKey(r); got != "10.1.2.3" {
		t.Fatalf("clientKey = %q, want the remote host", got)
	}
	r.Header.Set("X-Client-ID", "crawler-7")
	if got := clientKey(r); got != "crawler-7" {
		t.Fatalf("clientKey = %q, want the header identity", got)
	}
}

// newDurableServer builds a server with a learner, a WAL and a tight
// feedback rate limit, for the HTTP-level durability/limit tests.
func newDurableServer(t *testing.T, rate float64, burst int) (*httptest.Server, *wal.WAL) {
	t.Helper()
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	eng := engine.New(engine.WithWorkers(2))
	l, err := stream.New(eng, stream.Config{Models: []string{"pbm"}, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ts := httptest.NewServer(New(eng, nil,
		WithLearner(l), WithWAL(w), WithFeedbackRateLimit(rate, burst)))
	t.Cleanup(ts.Close)
	return ts, w
}

func postFeedback(t *testing.T, url, clientID string, nSessions int) *http.Response {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(`{"sessions":[`)
	for i := 0; i < nSessions; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"query":"q","docs":["a","b"],"clicks":[true,false]}`)
	}
	sb.WriteString(`]}`)
	req, err := http.NewRequest(http.MethodPost, url+"/v1/feedback", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if clientID != "" {
		req.Header.Set("X-Client-ID", clientID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestFeedbackRateLimitHTTP(t *testing.T) {
	ts, w := newDurableServer(t, 1, 10) // 1 event/s, burst 10: refill is negligible in-test

	resp := postFeedback(t, ts.URL, "noisy", 10)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("within-burst request: status %d", resp.StatusCode)
	}
	resp = postFeedback(t, ts.URL, "noisy", 5)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", ra)
	}
	// A different identity is not punished for the noisy one.
	resp = postFeedback(t, ts.URL, "polite", 5)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other client: status %d", resp.StatusCode)
	}
	// Rejected events never reached the sink or the log.
	if c := w.Metrics().Read(); c["wal.appended"] != 15 {
		t.Fatalf("WAL holds %v records, want the 15 accepted", c["wal.appended"])
	}

	var hb struct {
		RateLimit map[string]float64 `json:"ratelimit"`
		WAL       map[string]float64 `json:"wal"`
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if err := json.NewDecoder(hr.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if hb.RateLimit["limited"] != 1 || hb.RateLimit["rate"] != 1 || hb.RateLimit["burst"] != 10 {
		t.Fatalf("healthz ratelimit block: %v", hb.RateLimit)
	}
	if hb.WAL["appended"] != 15 || hb.WAL["durable_seq"] != 15 {
		t.Fatalf("healthz wal block: %v", hb.WAL)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newDurableServer(t, 100, 100)
	if resp := postFeedback(t, ts.URL, "m", 3); resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback: status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE microserve_http_requests_total counter",
		"microserve_feedback_events_total 3",
		"microserve_stream_accepted_total 3",
		"microserve_wal_appended_total 3",
		"microserve_wal_durable_seq 3",
		"# TYPE microserve_ratelimit_clients gauge",
		"microserve_models 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsWithoutSubsystems pins that a serving-only process still
// exposes a valid document with no stream/wal/limit families.
func TestMetricsWithoutSubsystems(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "microserve_models 2") {
		t.Fatalf("metrics missing the model gauge:\n%s", body)
	}
	if strings.Contains(string(body), "microserve_wal_") || strings.Contains(string(body), "microserve_stream_") {
		t.Fatalf("serving-only metrics leak subsystem families:\n%s", body)
	}
}
