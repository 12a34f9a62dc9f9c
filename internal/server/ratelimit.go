package server

import (
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// rateLimiter is a per-client token bucket over the feedback ingest
// path: each client (X-Client-ID header when present, remote host
// otherwise) accrues rate tokens per second up to burst, and every
// feedback event spends one. A client that outruns its bucket gets 429
// with a Retry-After hint instead of competing with everyone else for
// the learner's bounded sink — backpressure lands on the noisy client,
// not the fleet.
//
// Hand-rolled on purpose (no golang.org/x/time dependency): one mutex,
// one map, lazy refill on access, and a periodic sweep that drops
// full-and-idle buckets so an open-ended client population cannot grow
// the map without bound.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64
	ttl   time.Duration // idle-bucket eviction horizon

	mu        sync.Mutex
	clients   map[string]*bucket
	lastSweep time.Time
	now       func() time.Time // test hook

	limited atomic.Uint64 // requests rejected
}

// bucket is one client's token balance at its last refill instant.
type bucket struct {
	tokens float64
	at     time.Time
}

// maxClients bounds the tracked-client map; past it, unknown clients
// are rejected until the sweep frees room — a full table under an
// identifier-spinning flood must fail closed, not eat the heap.
const maxClients = 1 << 16

// sweepEvery is how often allowN scans for reclaimable buckets.
const sweepEvery = time.Minute

// defaultClientTTL is how long an idle client's bucket is remembered
// before eviction. A bucket below full never self-evicts through the
// refill rule alone (a client that sent one burst and vanished under a
// slow refill rate would be tracked for hours), so idleness itself is
// the bound that actually caps the map.
const defaultClientTTL = 10 * time.Minute

func newRateLimiter(rate float64, burst int) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		ttl:     defaultClientTTL,
		clients: make(map[string]*bucket),
		now:     time.Now,
	}
}

// allowN spends n tokens from key's bucket. When the balance is short
// it reports how long the client should wait before retrying (at least
// a second, so the header is meaningful after rounding).
func (rl *rateLimiter) allowN(key string, n int) (ok bool, retryAfter time.Duration) {
	now := rl.now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if now.Sub(rl.lastSweep) >= sweepEvery {
		rl.sweepLocked(now)
	}
	b := rl.clients[key]
	if b == nil {
		if len(rl.clients) >= maxClients {
			rl.sweepLocked(now)
		}
		if len(rl.clients) >= maxClients {
			rl.limited.Add(1)
			return false, sweepEvery
		}
		b = &bucket{tokens: rl.burst, at: now}
		rl.clients[key] = b
	} else {
		b.tokens = math.Min(rl.burst, b.tokens+now.Sub(b.at).Seconds()*rl.rate)
		b.at = now
	}
	need := float64(n)
	if b.tokens >= need {
		b.tokens -= need
		return true, 0
	}
	rl.limited.Add(1)
	short := math.Min(need, rl.burst) - b.tokens
	wait := time.Duration(short / rl.rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	return false, wait
}

// sweepLocked drops reclaimable buckets: ones that are full again
// (idle long enough to have fully refilled — forgetting them is free,
// their next request recreates an identical bucket) and ones idle past
// the TTL regardless of balance. The TTL eviction forgives at most
// burst tokens of debt per TTL window per client, a bounded and
// documented leniency; without it a partially-drained bucket under a
// slow refill rate would pin a map entry near-indefinitely. Caller
// holds rl.mu.
func (rl *rateLimiter) sweepLocked(now time.Time) {
	for key, b := range rl.clients {
		idle := now.Sub(b.at)
		if rl.ttl > 0 && idle >= rl.ttl {
			delete(rl.clients, key)
			continue
		}
		if math.Min(rl.burst, b.tokens+idle.Seconds()*rl.rate) >= rl.burst {
			delete(rl.clients, key)
		}
	}
	rl.lastSweep = now
}

// size returns the tracked-client count.
func (rl *rateLimiter) size() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return len(rl.clients)
}

// metrics declares the limiter's policy and what it did: the ratelimit
// block of /healthz.
func (rl *rateLimiter) metrics() obs.List {
	gauge := func(name, key, help string, v func() float64) obs.Metric {
		return obs.Metric{Name: name, Help: help, Kind: obs.KindGauge, Block: "ratelimit", Key: key, Value: v}
	}
	return obs.List{
		gauge("microserve_ratelimit_rate", "rate", "Configured sustained feedback events per second per client.",
			func() float64 { return rl.rate }),
		gauge("microserve_ratelimit_burst", "burst", "Configured token-bucket depth per client, in events.",
			func() float64 { return rl.burst }),
		{Name: "microserve_feedback_ratelimited_total", Help: "Feedback requests rejected by the per-client limiter.",
			Kind: obs.KindCounter, Block: "ratelimit", Key: "limited", Value: func() float64 { return float64(rl.limited.Load()) }},
		gauge("microserve_ratelimit_clients", "clients", "Clients currently tracked by the limiter.",
			func() float64 { return float64(rl.size()) }),
	}
}

// clientKey identifies the feedback producer: the self-reported
// X-Client-ID when present (load balancers hide source addresses;
// cooperating producers get per-producer budgets), the remote host
// otherwise.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
