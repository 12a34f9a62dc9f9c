// Package wal is the durability layer beneath the online learning
// loop: a segmented append-only write-ahead log that records every
// accepted feedback event before the learner's RAM-resident statistics
// absorb it, so a crash or kill -9 does not forget the clicks the
// paper's micro-browsing model is calibrated against.
//
// Layout on disk: a directory of segment files
//
//	wal-<first-seq, 16 hex>.log
//
// each opening with a small header (magic, format version, first
// sequence number, creation time) followed by length-prefixed record
// frames, every frame carrying its own CRC-32C and monotonic sequence
// number (see codec.go). A MANIFEST file (JSON, rewritten atomically
// on every rotation and prune) records the segment inventory for
// operators and cross-checking; the directory scan stays the source of
// truth on open, so a lost or stale manifest never loses data.
//
// An append takes one mutex, numbers its run and copies the records
// into a pending buffer; one flusher goroutine swaps that buffer out
// and frames, writes, fsyncs and rotates. Durability is a policy, not a
// constant:
//
//   - SyncAlways — every append is written and fsynced before it
//     returns. Concurrent appenders group-commit: whoever holds the
//     device lock fsyncs everything accepted so far, and the rest find
//     their records durable when they get it. Zero accepted events
//     survive only in RAM.
//   - SyncBatched (default) — the flusher writes and fsyncs every
//     SyncInterval, and frames early when pending passes a fill mark.
//     An append pays no encode, no syscall and no allocation, and
//     kill -9 loses at most one flush interval of accepted events.
//   - SyncOff — like batched but never fsyncs; the OS page cache
//     decides. A process kill still loses at most one flush interval;
//     power loss can lose whatever the kernel had not written back.
//
// Recovery on Open scans every segment, truncates a torn tail (a
// partially written frame at the end of the newest segment), and seals
// history; Replay then streams the retained records oldest-first,
// skipping corrupt frames by their claimed length with a counter
// rather than refusing the whole log. Rotation is size- and age-based,
// and pruning (retention window and/or byte budget, keyed by the
// learner's decay horizon) keeps disk usage bounded.
package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncBatched flushes and fsyncs on the SyncInterval cadence.
	SyncBatched SyncPolicy = iota
	// SyncAlways fsyncs before every Append returns (group-committed).
	SyncAlways
	// SyncOff writes on the flush cadence but never fsyncs.
	SyncOff
)

// String returns the policy name used in flags and logs.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "batched"
	}
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: closed")

// errEmptyRecord is hoisted to package level so Append's reject path
// stays allocation-free.
var errEmptyRecord = errors.New("wal: record carries neither session nor snippet")

// manifestName is the inventory file rewritten on rotation and prune.
const manifestName = "MANIFEST"

// Appenders and the flusher share two swap buffers of records, as the
// stream sink's shards do:
//
//	AppendRun ──amu──▶ pending ──swap──▶ flusher, under mu: frame, write, fsync, rotate ──▶ file
const (
	// maxPending bounds the records accepted and not yet framed: past
	// it an appender waits for the flusher to swap the buffer out, so a
	// slow device shows up as append latency, not as memory.
	maxPending = 1 << 14

	// fillMark wakes the flusher before its tick, so a burst is framed
	// while the rest of it arrives.
	fillMark = maxPending / 4

	// maxBuffered bounds the framed bytes not yet written: the flusher
	// hands them to the OS when they pass it.
	maxBuffered = 1 << 20

	// appendSampleEvery is the append histogram's sampling stride in
	// sequence numbers: a run is timed when one of its sequences is a
	// multiple.
	appendSampleEvery = 64
)

// Options parameterises a WAL. The zero value is serviceable: batched
// fsync on a 100ms interval, 64 MiB segments rotated at least every 10
// minutes, unbounded retention.
type Options struct {
	// SegmentBytes rotates the active segment when it reaches this
	// size (default 64 MiB).
	SegmentBytes int64
	// SegmentAge rotates the active segment when it has records and is
	// older than this (default 10m), so pruning has sealed segments to
	// work with even under light traffic.
	SegmentAge time.Duration
	// Sync is the fsync policy (default SyncBatched).
	Sync SyncPolicy
	// SyncInterval is the flush (and, for SyncBatched, fsync) cadence
	// (default 100ms). This is the bounded-loss window of a kill -9.
	SyncInterval time.Duration
	// Retention prunes sealed segments whose newest record is older
	// than this (0 = keep everything). Key it to the learner's decay
	// window: feedback the learner has fully aged out need not replay.
	Retention time.Duration
	// MaxBytes prunes oldest sealed segments while the log exceeds
	// this total size (0 = unbounded).
	MaxBytes int64
	// Logger receives rotation/prune/recovery lines; nil logs nothing.
	Logger *log.Logger
}

func (o *Options) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SegmentAge <= 0 {
		o.SegmentAge = 10 * time.Minute
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.Logger == nil {
		o.Logger = log.New(io.Discard, "", 0)
	}
}

// segmentInfo describes one sealed (read-only) segment.
type segmentInfo struct {
	File       string `json:"file"`
	FirstSeq   uint64 `json:"first_seq"`
	LastSeq    uint64 `json:"last_seq"`
	Records    int    `json:"records"`
	Bytes      int64  `json:"bytes"`
	SealedUnix int64  `json:"sealed_unix"`
}

// WAL is one open log directory. Open it, Replay history into the
// learner, then Append accepted feedback for the life of the process;
// Close flushes and seals. Append is safe for concurrent callers.
type WAL struct {
	dir  string
	opt  Options
	base uint64 // the first sequence number this process assigns

	// amu is the accept lock. An appender holds it to check that the
	// log is open and healthy, number its run and copy the records into
	// pending; the flusher holds it only to swap pending out.
	amu     sync.Mutex
	room    sync.Cond // broadcast when pending is swapped out, or the log closes or fails
	pending []Record  // accepted, not yet framed: the len(pending) sequences before nextSeq
	nextSeq uint64
	waiting int   // appenders parked on room
	closed  bool  // appends are refused; runs already inside are taken whole
	err     error // sticky: a write, fsync or rotation failed
	kick    chan struct{}

	// mu is the device lock, held by whoever frames, writes, fsyncs or
	// rotates: the flusher, syncTo, Close and the inventory.
	mu         sync.Mutex
	spare      []Record // pending's other half
	buf        []byte   // frames not yet written
	framed     uint64   // last sequence framed
	flushed    uint64   // last sequence handed to the OS
	f          *os.File // nil once closed
	fname      string
	segFirst   uint64
	segBytes   int64 // header + frames written or buffered
	segCreated time.Time
	sealed     []segmentInfo

	durable atomic.Uint64 // last sequence known fsynced

	appendErrors   atomic.Uint64
	flushes        atomic.Uint64
	syncs          atomic.Uint64
	replayed       atomic.Uint64
	corrupt        atomic.Uint64
	truncatedBytes atomic.Uint64
	prunedSegments atomic.Uint64

	// Durability-latency histograms (nanosecond samples, scraped by
	// /metrics). Appends are sampled 1-in-appendSampleEvery by sequence
	// number — the accept path is a lock and a copy, so unconditional
	// timing would be a real tax; flush/fsync/rotate are syscalls and are
	// timed exactly.
	appendH obs.Histogram
	flushH  obs.Histogram
	syncH   obs.Histogram
	rotateH obs.Histogram

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Open opens (creating if needed) the log directory, recovers existing
// segments — truncating a torn tail, dropping empty boot litter — and
// starts a fresh active segment plus the flusher. Call Replay before
// serving traffic to stream the recovered records back.
func Open(dir string, opt Options) (*WAL, error) {
	opt.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{
		dir: dir,
		opt: opt,
		// Both halves hold a fill mark's worth before either grows, so
		// appends between two kicks never grow a buffer.
		pending: make([]Record, 0, fillMark),
		spare:   make([]Record, 0, fillMark),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.room.L = &w.amu
	if err := w.recover(); err != nil {
		return nil, err
	}
	w.base = w.nextSeq
	w.framed, w.flushed = w.nextSeq-1, w.nextSeq-1
	w.durable.Store(w.nextSeq - 1)
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	w.writeManifestLocked()
	go w.flushLoop()
	return w, nil
}

// Policy returns the effective fsync policy.
func (w *WAL) Policy() SyncPolicy { return w.opt.Sync }

// Append records one feedback event, returning its sequence number: an
// AppendRun of one.
//
//mb:noalloc
func (w *WAL) Append(rec Record) (uint64, error) {
	one := [1]Record{rec}
	return w.AppendRun(one[:])
}

// AppendRun records a run of feedback events — one request body's
// worth — in order, under consecutive sequence numbers, and returns the
// last. A run with an empty record is refused whole; an empty run
// appends nothing and returns 0. Under the accept lock it checks that
// the log is open and healthy, numbers the run and copies its records
// into the pending buffer: no encode, no syscall, no allocation. The
// flusher frames them later, each exactly as if it had been appended
// alone. A run that finds no room waits for the flusher to swap the
// buffer out; a run longer than the bound goes in a buffer at a time,
// and other runs may take sequences between its parts. Under
// SyncAlways AppendRun then waits on the group-committed fsync for the
// run's last sequence, so the whole run is durable; otherwise it is
// written within one SyncInterval.
//
//mb:noalloc
func (w *WAL) AppendRun(recs []Record) (uint64, error) {
	for i := range recs {
		if recs[i].empty() {
			return 0, errEmptyRecord
		}
	}
	if len(recs) == 0 {
		return 0, nil
	}
	n := uint64(len(recs))
	w.amu.Lock()
	err := w.err
	if w.closed {
		err = ErrClosed
	}
	if err != nil {
		w.amu.Unlock()
		w.appendErrors.Add(n)
		return 0, err
	}
	var t0 time.Time
	if (w.nextSeq+n-1)/appendSampleEvery != (w.nextSeq-1)/appendSampleEvery {
		t0 = time.Now()
	}
	for {
		k := len(recs)
		if room := maxPending - len(w.pending); k > room && !w.closed {
			// A run that fits the bound waits to go in whole, so its
			// sequences are consecutive; a longer one takes what room
			// there is.
			k = 0
			if len(recs) > maxPending {
				k = room
			}
		}
		was := len(w.pending)
		w.pending = append(w.pending, recs[:k]...)
		w.nextSeq += uint64(k)
		recs = recs[k:]
		if was < fillMark && len(w.pending) >= fillMark || len(recs) > 0 {
			select {
			case w.kick <- struct{}{}:
			default:
			}
		}
		if len(recs) == 0 {
			break
		}
		// No room. The run passed the gate, so a Close arriving while it
		// waits takes the rest of it over the bound.
		w.waiting++
		w.room.Wait()
		w.waiting--
		if w.closed {
			w.room.Broadcast() // Close waits for the runs inside to finish
		}
		if err := w.err; err != nil {
			w.amu.Unlock()
			w.appendErrors.Add(uint64(len(recs)))
			return 0, err
		}
	}
	last := w.nextSeq - 1
	w.amu.Unlock()
	if w.opt.Sync == SyncAlways {
		if err := w.syncTo(last); err != nil {
			w.appendErrors.Add(n)
			return last, err
		}
	}
	if !t0.IsZero() {
		// Sampled run: the histogram sees the wait for room and (for
		// SyncAlways) the group commit — the latency an ingesting caller
		// actually pays.
		w.appendH.RecordSince(t0)
	}
	return last, nil
}

// next returns the sequence number the next accepted record gets.
func (w *WAL) next() uint64 {
	w.amu.Lock()
	defer w.amu.Unlock()
	return w.nextSeq
}

// flushLoop is the flusher: on a kick it frames what is pending, and on
// every SyncInterval tick it also writes, fsyncs under SyncBatched (the
// bounded-loss window of a kill -9) and rotates a segment past its age.
// Close takes the last flush itself.
func (w *WAL) flushLoop() {
	defer close(w.done)
	t := time.NewTicker(w.opt.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-w.kick:
			w.mu.Lock()
			_ = w.frameLocked() // a failure is sticky, logged and refused by the next append
			w.mu.Unlock()
		case <-t.C:
			w.mu.Lock()
			switch {
			case w.flushLocked() != nil:
				// The failure is sticky and logged; nothing more to do.
			case w.framed >= w.segFirst && time.Since(w.segCreated) >= w.opt.SegmentAge:
				_ = w.rotateLocked() // sealing fsyncs unless SyncOff
			case w.opt.Sync == SyncBatched:
				_ = w.syncLocked()
			}
			w.mu.Unlock()
		}
	}
}

// frameLocked swaps pending out and frames each record into buf under
// its sequence number, exactly as if it had been appended alone: the
// record that crosses SegmentBytes rotates the segment, and buf is
// written when it passes maxBuffered. Once the log has failed, what it
// swaps out is discarded and counted. Caller holds mu.
func (w *WAL) frameLocked() error {
	w.amu.Lock()
	batch, seq, err := w.pending, w.nextSeq-uint64(len(w.pending)), w.err
	w.pending = w.spare
	w.room.Broadcast()
	w.amu.Unlock()
	n := 0
	for ; n < len(batch) && err == nil; n++ {
		was := len(w.buf)
		w.buf = appendFrame(w.buf, seq, &batch[n])
		w.segBytes += int64(len(w.buf) - was)
		w.framed = seq
		seq++
		if w.segBytes >= w.opt.SegmentBytes {
			err = w.rotateLocked()
		} else if len(w.buf) >= maxBuffered {
			err = w.writeLocked()
		}
	}
	if n < len(batch) {
		w.appendErrors.Add(uint64(len(batch) - n))
	}
	clear(batch) // release the records' references for GC
	w.spare = batch[:0]
	return err
}

// writeLocked hands the framed bytes to the OS. Caller holds mu.
func (w *WAL) writeLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	t0 := time.Now()
	if _, err := w.f.Write(w.buf); err != nil {
		return w.fail(err)
	}
	w.flushH.RecordSince(t0)
	w.flushes.Add(1)
	w.buf = w.buf[:0]
	w.flushed = w.framed
	return nil
}

// flushLocked frames what is pending and writes every framed byte.
// Caller holds mu.
func (w *WAL) flushLocked() error {
	if err := w.frameLocked(); err != nil {
		return err
	}
	return w.writeLocked()
}

// syncLocked flushes and fsyncs everything accepted so far. Caller
// holds mu.
func (w *WAL) syncLocked() error {
	if err := w.flushLocked(); err != nil {
		return err
	}
	if w.durable.Load() >= w.flushed {
		return nil
	}
	t0 := time.Now()
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	w.syncH.RecordSince(t0)
	w.syncs.Add(1)
	w.durable.Store(w.flushed)
	return nil
}

// fail makes err the log's sticky error, which every later append is
// refused with, and drops the frames the failing segment did not take,
// so the segment's inventory counts only what reached it. The first
// failure is logged. Caller holds mu.
func (w *WAL) fail(err error) error {
	w.segBytes -= int64(len(w.buf))
	w.buf = w.buf[:0]
	w.framed = w.flushed
	w.amu.Lock()
	defer w.amu.Unlock()
	if w.err == nil {
		w.err = err
		w.opt.Logger.Printf("wal: appends are refused from now on: %v", err)
		w.room.Broadcast()
	}
	return w.err
}

// syncTo makes every record up to seq durable. Appenders under
// SyncAlways queue on the device lock, and most find their records
// fsynced by the holder before them: the group commit.
func (w *WAL) syncTo(seq uint64) error {
	if w.durable.Load() >= seq {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.durable.Load() >= seq {
		return nil
	}
	if w.f == nil {
		// Closed, and its last fsync did not cover seq.
		return ErrClosed
	}
	return w.syncLocked()
}

// Sync flushes and fsyncs everything appended so far, regardless of
// policy — the explicit barrier for shutdown paths and tests.
func (w *WAL) Sync() error {
	return w.syncTo(w.next() - 1)
}

// rotateLocked seals the active segment (write, fsync unless SyncOff,
// close), prunes history, opens a successor and rewrites the manifest.
// Caller holds mu. Rotating an empty segment is a no-op.
func (w *WAL) rotateLocked() error {
	if w.framed < w.segFirst {
		return nil
	}
	defer w.rotateH.RecordSince(time.Now())
	if err := w.writeLocked(); err != nil {
		return err
	}
	if w.opt.Sync != SyncOff {
		if err := w.f.Sync(); err != nil {
			return w.fail(err)
		}
		w.syncs.Add(1)
		w.durable.Store(w.flushed)
	}
	if err := w.f.Close(); err != nil {
		return w.fail(err)
	}
	w.sealLocked()
	w.opt.Logger.Printf("wal: sealed %s (%d records, %d bytes)", w.fname, w.framed-w.segFirst+1, w.segBytes)
	w.pruneLocked()
	if err := w.openSegmentLocked(); err != nil {
		return w.fail(err)
	}
	w.writeManifestLocked()
	return nil
}

// sealLocked records the active segment as sealed history. Caller
// holds mu.
func (w *WAL) sealLocked() {
	w.sealed = append(w.sealed, segmentInfo{
		File:       w.fname,
		FirstSeq:   w.segFirst,
		LastSeq:    w.framed,
		Records:    int(w.framed - w.segFirst + 1),
		Bytes:      w.segBytes,
		SealedUnix: time.Now().Unix(),
	})
}

// pruneLocked removes sealed segments outside the retention window or
// beyond the byte budget, oldest first. Caller holds mu.
func (w *WAL) pruneLocked() {
	drop := 0
	if w.opt.Retention > 0 {
		cutoff := time.Now().Add(-w.opt.Retention).Unix()
		for drop < len(w.sealed) && w.sealed[drop].SealedUnix < cutoff {
			drop++
		}
	}
	if w.opt.MaxBytes > 0 {
		total := w.segBytes
		for _, s := range w.sealed[drop:] {
			total += s.Bytes
		}
		for i := drop; i < len(w.sealed) && total > w.opt.MaxBytes; i++ {
			total -= w.sealed[i].Bytes
			drop = i + 1
		}
	}
	for _, s := range w.sealed[:drop] {
		if err := os.Remove(filepath.Join(w.dir, s.File)); err != nil {
			w.opt.Logger.Printf("wal: prune %s: %v", s.File, err)
			continue
		}
		w.prunedSegments.Add(1)
		w.opt.Logger.Printf("wal: pruned %s (seqs %d-%d)", s.File, s.FirstSeq, s.LastSeq)
	}
	if drop > 0 {
		w.sealed = append(w.sealed[:0], w.sealed[drop:]...)
	}
}

// openSegmentLocked creates the next active segment and writes its
// header. Caller holds mu.
func (w *WAL) openSegmentLocked() error {
	w.segFirst = w.framed + 1
	w.fname = fmt.Sprintf("wal-%016x.log", w.segFirst)
	f, err := os.OpenFile(filepath.Join(w.dir, w.fname), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := appendSegmentHeader(nil, w.segFirst, time.Now().Unix())
	if _, err := f.Write(hdr); err != nil {
		_ = f.Close() // segment is unusable; the write error is the one to surface
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	w.f = f
	w.segBytes = int64(len(hdr))
	w.segCreated = time.Now()
	return nil
}

// Close stops accepting appends, lets the runs already inside finish,
// stops the flusher, writes and fsyncs (unless SyncOff) what is pending
// and seals the log. Idempotent.
func (w *WAL) Close() error {
	w.amu.Lock()
	w.closed = true
	w.room.Broadcast()
	for w.waiting > 0 {
		w.room.Wait()
	}
	w.amu.Unlock()
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if w.opt.Sync == SyncOff {
		err = w.flushLocked()
	} else {
		err = w.syncLocked()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if w.framed >= w.segFirst {
		// The final active segment becomes sealed history.
		w.sealLocked()
	} else {
		// Nothing was ever appended to it; leave no boot litter.
		os.Remove(filepath.Join(w.dir, w.fname))
	}
	w.fname = ""
	w.writeManifestLocked()
	return err
}

// Metrics declares the log's health: appends and their failures,
// flushes and fsyncs, what recovery replayed, skipped and truncated,
// pruning, the segment inventory and the sequence watermarks, and the
// operation histograms (appends sampled 1-in-appendSampleEvery, with
// the wait for room and SyncAlways group commit; per write, per fsync,
// per rotation).
func (w *WAL) Metrics() obs.List {
	counter := func(key, help string, v func() uint64) obs.Metric {
		return obs.Metric{Name: "microserve_wal_" + key + "_total", Help: help, Kind: obs.KindCounter,
			Block: "wal", Key: key, Value: func() float64 { return float64(v()) }}
	}
	gauge := func(key, help string, v func() float64) obs.Metric {
		return obs.Metric{Name: "microserve_wal_" + key, Help: help, Kind: obs.KindGauge, Block: "wal", Key: key, Value: v}
	}
	op := func(name string, h *obs.Histogram) obs.Metric {
		return obs.Metric{Name: "microserve_wal_op_duration_seconds",
			Help: "WAL operation durations (append sampled 1-in-64; syscalls exact).",
			Kind: obs.KindHistogram, Labels: `op="` + name + `"`, Scale: 1e-9, Hist: h}
	}
	return obs.List{
		// The inventory comes first: it frames what is pending, so every
		// reading after it in a scrape sees the appends accepted before.
		gauge("segments", "Live segment files.", func() float64 { n, _ := w.inventory(); return float64(n) }),
		gauge("bytes", "Total log bytes (including buffered).", func() float64 { _, b := w.inventory(); return float64(b) }),
		counter("appended", "Records appended to the feedback WAL.", func() uint64 { return w.next() - w.base }),
		counter("append_errors", "WAL appends that failed.", w.appendErrors.Load),
		counter("flushes", "Append-buffer flushes to the OS.", w.flushes.Load),
		counter("syncs", "fsync calls.", w.syncs.Load),
		counter("replayed", "Records replayed at boot.", w.replayed.Load),
		counter("corrupt_skipped", "Corrupt records skipped during replay.", w.corrupt.Load),
		counter("truncated_bytes", "Torn-tail bytes truncated during recovery.", w.truncatedBytes.Load),
		counter("pruned_segments", "Sealed segments pruned.", w.prunedSegments.Load),
		gauge("durable_seq", "Highest fsynced sequence number.", func() float64 { return float64(w.durable.Load()) }),
		gauge("next_seq", "Next sequence number to be appended.", func() float64 { return float64(w.next()) }),
		op("append", &w.appendH),
		op("flush", &w.flushH),
		op("sync", &w.syncH),
		op("rotate", &w.rotateH),
	}
}

// inventory counts the live segment files and their bytes. It frames
// what is pending first, so what it reports is current as of the read.
func (w *WAL) inventory() (segments int, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		_ = w.frameLocked() // a failure is sticky and logged; the counts stand
		segments, bytes = 1, w.segBytes
	}
	for _, s := range w.sealed {
		bytes += s.Bytes
	}
	return segments + len(w.sealed), bytes
}

// manifest is the JSON inventory rewritten on every rotation/prune.
type manifest struct {
	NextSeq     uint64        `json:"next_seq"`
	Active      string        `json:"active"`
	Segments    []segmentInfo `json:"segments"`
	UpdatedUnix int64         `json:"updated_unix"`
}

// writeManifestLocked rewrites MANIFEST atomically (and durably: the
// atomic write helper fsyncs the file and the directory). Manifest
// failures are logged, not fatal — the directory scan recovers without
// one. Caller holds w.mu.
func (w *WAL) writeManifestLocked() {
	m := manifest{
		NextSeq:     w.framed + 1,
		Active:      w.fname,
		Segments:    w.sealed,
		UpdatedUnix: time.Now().Unix(),
	}
	err := writeManifest(filepath.Join(w.dir, manifestName), &m)
	if err != nil {
		w.opt.Logger.Printf("wal: manifest: %v", err)
	}
}

// sortSegments orders segment metadata by first sequence number.
func sortSegments(segs []segmentInfo) {
	sort.Slice(segs, func(i, j int) bool { return segs[i].FirstSeq < segs[j].FirstSeq })
}

// readManifest loads MANIFEST if present; a missing or unreadable
// manifest returns nil — recovery never depends on it.
func readManifest(path string) *manifest {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var m manifest
	if json.Unmarshal(b, &m) != nil {
		return nil
	}
	return &m
}
