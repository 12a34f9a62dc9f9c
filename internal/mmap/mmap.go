// Package mmap loads v2 snapshot artifacts by mapping them read-only
// and handing out zero-copy views, making model load time O(1) in the
// artifact size: no decode pass, no heap tables, and N processes
// mapping the same file share one page-cache copy of a multi-GB model.
//
// Lifetime is the hard part. Compiled scorers built over a mapping
// reference its pages directly, so the mapping may only be unmapped
// after the last reader is done — and "reader" includes a request that
// resolved a model version milliseconds before a hot swap pruned it.
// Artifact therefore carries a CAS-guarded refcount: the owner (the
// engine's version table) holds one reference from Open, score paths
// Retain/Release around use, and munmap runs exactly once, when the
// count hits zero. Retain on a drained artifact fails instead of
// resurrecting it, which lets the engine detect the race and re-resolve
// from the fresh table rather than touch dead pages.
package mmap

import (
	"fmt"
	"os"
	"sync/atomic"
	"syscall"

	"repro/internal/snapshot"
)

// Artifact is a parsed v2 snapshot plus the refcounted mapping behind
// it. The embedded *snapshot.V2Artifact provides the section views; all
// of them alias the mapping and share its lifetime.
type Artifact struct {
	*snapshot.V2Artifact

	// refs counts the owner (1 at Open) plus every pinned reader.
	// It is a plain Go allocation, so a failed Retain after drain
	// touches live memory even though the mapping itself is gone.
	refs atomic.Int64

	mapping []byte // non-nil only for real mappings; nil for FromBytes
	size    int64
}

// Open maps the file read-only, validates the v2 structure, and returns
// an artifact holding one owner reference. Structural validation is
// O(#sections); payload CRCs are deferred to Verify so that opening a
// 100GB artifact costs the same as a 1MB one.
func Open(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size <= 0 {
		return nil, fmt.Errorf("mmap: %s: empty artifact", path)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmap: %s: artifact of %d bytes exceeds the address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap: %s: %v", path, err)
	}
	parsed, err := snapshot.ParseV2(data)
	if err != nil {
		_ = syscall.Munmap(data)
		return nil, fmt.Errorf("mmap: %s: %w", path, err)
	}
	a := &Artifact{V2Artifact: parsed, mapping: data, size: size}
	a.refs.Store(1)
	return a, nil
}

// FromBytes wraps in-memory v2 bytes in the same refcounted interface,
// for tests and for artifacts received over the wire. The caller must
// not mutate data afterwards.
func FromBytes(data []byte) (*Artifact, error) {
	parsed, err := snapshot.ParseV2(data)
	if err != nil {
		return nil, err
	}
	a := &Artifact{V2Artifact: parsed, size: int64(len(data))}
	a.refs.Store(1)
	return a, nil
}

// Size returns the artifact size in bytes.
func (a *Artifact) Size() int64 { return a.size }

// Verify runs the deferred O(size) CRC-32C pass over every section.
// Call it when provenance is untrusted (a fetched replica artifact, an
// operator-supplied file); skip it for artifacts this process wrote
// atomically itself.
func (a *Artifact) Verify() error { return a.VerifySections() }

// Retain pins the artifact for a reader. It fails — returning false
// without side effects — if the count already drained to zero, meaning
// the mapping is gone (or about to be); the caller must re-resolve
// whatever led it here instead of using the artifact.
//
//mb:noalloc
func (a *Artifact) Retain() bool {
	for {
		n := a.refs.Load()
		if n <= 0 {
			return false
		}
		if a.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops one reference; the last release unmaps. Releasing more
// times than retained is a bug and panics loudly rather than silently
// double-unmapping.
//
//mb:noalloc
func (a *Artifact) Release() {
	n := a.refs.Add(-1)
	switch {
	case n == 0:
		if a.mapping != nil {
			m := a.mapping
			a.mapping = nil
			_ = syscall.Munmap(m)
		}
	case n < 0:
		panic("mmap: artifact released more times than retained")
	}
}
