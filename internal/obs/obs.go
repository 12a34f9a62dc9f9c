// Package obs is the serving stack's observability substrate: a
// dependency-free layer of zero-allocation measurement primitives in
// the repo's design language — atomics, fixed-size arrays,
// //mb:noalloc hot paths — feeding the hand-rolled /metrics and
// /healthz surfaces.
//
// Five pieces:
//
//   - Metric: the one declaration of a signal — name, help, kind, its
//     place on /healthz and a reader of the value the hot path already
//     bumps. Each subsystem returns its List from one method beside its
//     atomics; a server concatenates the lists of what is attached and
//     renders both surfaces from them (AppendProm, AppendJSON).
//   - Histogram: a log2-bucketed atomic histogram. Record is one
//     bits.Len64 and three atomic adds — no locks, no allocation — so
//     it can sit inside the compiled score kernel's dispatch loop and
//     the WAL's append path. Snapshot() returns a plain value
//     type; a Metric's Scale renders it as Prometheus histogram
//     exposition (_bucket/_sum/_count) in its own units, so the same
//     primitive serves nanosecond latencies (scale 1e-9 → seconds)
//     and micro-CTR distributions (scale 1e-6 → probability).
//   - NormL1: the drift metric — the L1 distance between two
//     snapshots' normalised bucket distributions, in [0, 2]. The
//     engine pins a model version's predicted-CTR distribution at
//     publish time and compares the live distribution against it, so
//     a bad online refit is visible on /healthz before CTR regresses.
//   - TraceRing: a fixed-size ring of recent slow-request traces
//     (per-stage timings, model@version, item counts) behind one
//     mutex, written only on the slow path and served at
//     GET /debug/traces.
//   - Request identity and process identity: NewRequestID mints
//     X-Request-ID values; Build and Uptime expose what binary is
//     serving and for how long.
//
// See DESIGN.md ("Observability") for the layering picture.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// procStart anchors Uptime to package initialisation, which for the
// serving binary is process start.
var procStart = time.Now()

// Uptime returns how long this process has been up.
func Uptime() time.Duration { return time.Since(procStart) }

// BuildInfo identifies the running binary: the Go toolchain that built
// it and the VCS state it was built from (empty when the binary was
// built outside a checkout, e.g. go test).
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

var (
	buildOnce sync.Once
	buildInfo BuildInfo
)

// Build returns the binary's build identity, read once from the
// runtime's embedded build information.
func Build() BuildInfo {
	buildOnce.Do(func() {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfo.GoVersion = bi.GoVersion
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev := s.Value
				if len(rev) > 12 {
					rev = rev[:12]
				}
				buildInfo.Revision = rev
			case "vcs.modified":
				buildInfo.Modified = s.Value == "true"
			}
		}
	})
	return buildInfo
}

// ridPrefix distinguishes IDs minted by different processes; ridSeq
// orders IDs within one. Falling back to a fixed prefix when the
// system entropy source fails start-up keeps IDs useful (unique per
// process run up to restarts) rather than failing request serving.
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Uint64
)

// NewRequestID mints a process-unique request ID ("mb-3f9a1c2e-2a"):
// a random per-process prefix plus an atomic sequence number. Used
// when a client did not supply its own X-Request-ID; the allocation is
// acceptable because ID generation only happens on the HTTP path,
// which already allocates for JSON decoding.
func NewRequestID() string {
	var seq [8]byte
	n := ridSeq.Add(1)
	for i := 7; i >= 0; i-- {
		seq[i] = "0123456789abcdef"[n&0xf]
		n >>= 4
	}
	i := 0
	for i < 7 && seq[i] == '0' {
		i++
	}
	return "mb-" + ridPrefix + "-" + string(seq[i:])
}
