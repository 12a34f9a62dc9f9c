// Package engine is the unified CTR-scoring surface of this repository:
// one request/response API over both browsing levels of the paper — the
// macro click models of Section II (internal/clickmodel) and the
// micro-browsing model of Section III (internal/core).
//
// The two levels estimate the same quantity, the probability of a
// click, from different evidence: click models from a result's position
// within a session, the micro model from the snippet text itself. The
// Scorer interface abstracts over both, and the Engine adds what a
// serving system needs on top of a single scorer:
//
//   - name-based model selection backed by the clickmodel registry, so
//     binaries pick models from config strings (-model pbm);
//   - immutable, versioned model installs: Install — and Fit, UseMicro
//     and the LoadSnapshot family, which end in the same publish —
//     puts a new version of the named scorer into a copy-on-write
//     table behind an atomic pointer, so the read path
//     (ScoreCTR/ScoreBatch) is lock-free and in-flight requests always
//     see a consistent table. Requests address "name" (the latest
//     version) or "name@3" (a pinned version); Rollback moves the
//     latest pointer back without discarding the newer version.
//   - snapshot artifacts: SaveSnapshot writes an installed model's
//     fitted parameters as a self-describing binary artifact
//     (internal/snapshot) and LoadSnapshot hot-swaps one in — the
//     fit-offline / serve-online split (cmd/microserve is the HTTP
//     front over exactly this surface);
//   - batch scoring on the goroutine that received the batch: ScoreBatch
//     runs a scoring strand on its caller and, for batches large enough
//     to repay a wake-up, helper strands beside it under one
//     engine-wide cap (WithWorkers), with per-request error reporting
//     and cooperative context cancellation;
//   - a bounded memo of micro answers (memo.go): a snippet the version
//     being served has already scored is answered without running the
//     kernel, bit for bit what the kernel said.
//
// The facade package re-exports the engine as the library's primary
// public API; see the repository README for the serving walkthrough
// and DESIGN.md for the system inventory.
package engine

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// NameMicro is the reserved scorer name of the micro-browsing model.
const NameMicro = "micro"

// Engine routes scoring requests to named, versioned scorers and
// scores batches on their callers, helped by a capped number of extra
// strands. Create one with New; the zero value is unusable.
//
// An Engine is safe for concurrent use. Installing scorers (Install,
// Fit, LoadSnapshot) or rolling one back while batches are in flight
// is allowed: writers publish a fresh immutable scorer table through
// an atomic pointer, so readers never block and each request resolves
// against one consistent table.
type Engine struct {
	workers      int
	defaultModel string
	keep         int
	obs          *Observer // nil = uninstrumented (see WithObserver)

	strands atomic.Int32 // batch-scoring strands in flight, callers and helpers

	// memo answers a micro request the live version has already scored
	// (memo.go). It is the one thing strands share besides the table.
	memo *snippetMemo

	mu        sync.Mutex                  // serialises table writers only
	tab       atomic.Pointer[scorerTable] // read path loads this, lock-free
	lastIdent uint64                      // identity of the newest installed version; under mu
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithWorkers sets the engine-wide cap on batch-scoring strands
// (default runtime.GOMAXPROCS(0); values < 1 are treated as 1). The
// goroutine that calls ScoreBatch always scores, whatever the cap; a
// helper strand is woken only while fewer than this many strands —
// callers and helpers of every batch the engine is running, counted
// together — are in flight. It is the engine's pool size, not a
// per-batch multiplier: n concurrent callers wake at most workers-1
// helpers between them, and none once n reaches the cap.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.workers = n
	}
}

// WithDefaultModel sets the scorer used by requests that leave
// Request.Model empty (default NameMicro).
func WithDefaultModel(name string) Option {
	return func(e *Engine) { e.defaultModel = canonical(name) }
}

// WithKeepVersions bounds the version history kept per model name
// (default 8). Older versions beyond the bound are dropped on install;
// n <= 0 keeps every version. The served (latest) version is never
// dropped.
func WithKeepVersions(n int) Option {
	return func(e *Engine) { e.keep = n }
}

// defaultKeepVersions bounds per-name history so a serving process
// refitting on live traffic does not accumulate old parameter tables
// without bound.
const defaultKeepVersions = 8

// New returns an Engine with the given options applied.
func New(opts ...Option) *Engine {
	e := &Engine{
		workers:      runtime.GOMAXPROCS(0),
		defaultModel: NameMicro,
		keep:         defaultKeepVersions,
		memo:         newSnippetMemo(memoShardCount(runtime.GOMAXPROCS(0))),
	}
	e.tab.Store(&scorerTable{entries: map[string]*modelEntry{}})
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// canonical normalises scorer names: registry names are case- and
// whitespace-insensitive.
func canonical(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}
