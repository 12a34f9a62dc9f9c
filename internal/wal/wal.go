// Package wal is the durability layer beneath the online learning
// loop: a segmented append-only write-ahead log that records every
// accepted feedback event before the learner's RAM-resident statistics
// absorb it, so a crash or kill -9 no longer forgets the clicks the
// paper's micro-browsing model is being calibrated against.
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
// Durability is a policy, not a constant:
//
//   - SyncAlways — every Append is written and fsynced before it
//     returns. Concurrent appenders group-commit: whoever grabs the
//     sync lock fsyncs everything written so far, and the rest observe
//     the advanced durable sequence and return without their own
//     fsync. Zero accepted events survive only in RAM.
//   - SyncBatched (default) — Append publishes the record into a
//     lock-free ring; a background encoder frames it and a writer
//     flushes and fsyncs every SyncInterval (draining early past a
//     chunk bound). The hot path is a ticket and a slot store — no
//     lock, no syscall, no allocation — and kill -9 loses at most one
//     flush interval of accepted events.
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
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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

// The hot path is a three-stage pipeline, each stage on its own
// goroutine so a slow device never surfaces in an Append:
//
//	producers ──ring──▶ encoder ──chunk buffer──▶ writer ──▶ file
//
// Producers publish Records into a fixed ring (a ticket plus one slot
// store — no lock, no encode, no syscall); the encoder drains the ring
// in ticket order, assigns sequence numbers, frames and checksums
// records into the chunk buffer; the writer swaps full chunks out and
// hands them to the OS with the mutex released. fsync rides the
// encoder's tick (SyncBatched) or a group-committed barrier
// (SyncAlways).
const (
	// ringBits sizes the publish ring: 1<<14 records in flight absorbs
	// an fsync pause at full ingest rate while costing ~1 MiB.
	ringBits = 14
	ringSize = 1 << ringBits
	ringMask = ringSize - 1

	// pokeStride is how often a producer nudges the encoder outside
	// SyncAlways; stragglers are bounded by the SyncInterval tick.
	pokeStride = 256

	// drainBatch bounds how long the encoder holds the mutex per drain
	// pass so watermark readers and the writer's swap interleave.
	drainBatch = 1024

	// flushChunk hands the chunk buffer to the writer early when it
	// outgrows this many bytes, so burst ingest does not sit in RAM
	// for a whole flush tick. maxBuffered is the backpressure bound:
	// past it the encoder stops trusting the writer to catch up and
	// drains inline, capping memory at a few chunks no matter how far
	// the device falls behind.
	flushChunk  = 1 << 20
	maxBuffered = 4 << 20
)

// ringSlot is one publish slot, padded out to a cache line so
// neighbouring producers and the encoder do not false-share. turn
// follows the ticketed-sequence protocol: a producer holding ticket t
// waits for turn == t, stores its record, then publishes turn = t+1;
// the encoder consumes at turn == t+1 and releases the slot for the
// next lap with turn = t + ringSize.
type ringSlot struct {
	turn atomic.Uint64
	rec  Record
	_    [64 - (8+unsafe.Sizeof(Record{}))%64]byte
}

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
	dir string
	opt Options

	// The publish ring. Producers take a ticket from head and store
	// their record into ring[ticket%ringSize]; the encoder consumes in
	// ticket order at tail. base is the sequence number of ticket 0
	// (the recovered nextSeq), fixed at Open, so seq = base + ticket
	// without any shared counter on the hot path.
	ring []ringSlot
	head atomic.Uint64
	base uint64

	// closedA gates new appends before they take a ticket; inflight
	// counts producers between that gate and their slot publish, so
	// Close can wait for every accepted record to reach the ring.
	// fail mirrors writeErr for the lock-free accept path.
	closedA  atomic.Bool
	inflight atomic.Int64
	fail     atomic.Pointer[error]

	// mu guards the active segment: file handle, chunk buffer, the
	// encoder's sequence watermark, rotation.
	mu         sync.Mutex
	f          *os.File
	fname      string
	buf        []byte // frames encoded but not yet written
	spare      []byte
	tail       uint64 // next ticket the encoder consumes
	nextSeq    uint64 // == base + tail: first seq not yet encoded
	segFirst   uint64
	segBytes   int64 // header + frames written or buffered
	segCreated time.Time
	sealed     []segmentInfo
	writeErr   error // sticky: the active segment is failing
	closed     bool

	// encCond is broadcast as the encoder advances nextSeq, waking
	// syncTo callers waiting for their record to be encoded.
	encCond sync.Cond
	encC    chan struct{} // poke: the ring has records

	// writing is true while the writer goroutine holds a full chunk
	// and is writing it outside mu, so the encoder keeps framing into
	// a fresh buffer instead of stalling behind the device. Anything
	// that must see a quiesced file (rotation, sync, close, inline
	// backpressure drains) waits on wrDone first.
	writing bool
	wrDone  sync.Cond
	flushC  chan struct{}

	// syncMu serialises fsyncs so concurrent SyncAlways appenders
	// group-commit instead of queueing one fsync each.
	syncMu  sync.Mutex
	flushed atomic.Uint64 // highest seq handed to the OS
	durable atomic.Uint64 // highest seq known fsynced

	appendErrors   atomic.Uint64
	flushes        atomic.Uint64
	syncs          atomic.Uint64
	replayed       atomic.Uint64
	corrupt        atomic.Uint64
	truncatedBytes atomic.Uint64
	prunedSegments atomic.Uint64

	// Durability-latency histograms (nanosecond samples, scraped by
	// /metrics). Appends are sampled 1-in-appendSampleEvery by ticket —
	// the accept path is lock-free and ~100ns, so unconditional timing
	// would be a real tax; flush/fsync/rotate are syscalls and are
	// timed exactly.
	appendH obs.Histogram
	flushH  obs.Histogram
	syncH   obs.Histogram
	rotateH obs.Histogram

	stopOnce  sync.Once
	stop      chan struct{}
	encDone   chan struct{}
	writeDone chan struct{}
}

// Open opens (creating if needed) the log directory, recovers existing
// segments — truncating a torn tail, dropping empty boot litter — and
// starts a fresh active segment plus the background flusher. Call
// Replay before serving traffic to stream the recovered records back.
func Open(dir string, opt Options) (*WAL, error) {
	opt.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{
		dir:       dir,
		opt:       opt,
		ring:      make([]ringSlot, ringSize),
		stop:      make(chan struct{}),
		encDone:   make(chan struct{}),
		writeDone: make(chan struct{}),
		encC:      make(chan struct{}, 1),
		flushC:    make(chan struct{}, 1),
	}
	for i := range w.ring {
		w.ring[i].turn.Store(uint64(i))
	}
	// Pre-size both sides of the double buffer past the chunk bound so
	// steady state never grows a slice mid-encode.
	w.buf = make([]byte, 0, flushChunk+flushChunk/2)
	w.spare = make([]byte, 0, flushChunk+flushChunk/2)
	w.wrDone.L = &w.mu
	w.encCond.L = &w.mu
	if err := w.recover(); err != nil {
		return nil, err
	}
	w.base = w.nextSeq
	w.flushed.Store(w.nextSeq - 1)
	w.durable.Store(w.nextSeq - 1)
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	w.writeManifestLocked()
	go w.encodeLoop()
	go w.writeLoop()
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
// appends nothing and returns 0. The hot path is lock-free, and what
// belongs to the run is paid once: one check of the closed and failing
// gates, one ticket reservation per ring's worth of records, one poke
// of the encoder, one fsync barrier. Per record it is a slot store and
// its publish — no mutex, no encode, no syscall, no allocation. The
// encoder goroutine frames and checksums published records in ticket
// order, each exactly as if it had been appended alone; under
// SyncAlways, AppendRun then waits on the group-committed fsync barrier
// for the run's last sequence before returning, so the whole run is
// durable; otherwise it is flushed within one SyncInterval.
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
	w.inflight.Add(1)
	if w.closedA.Load() {
		w.inflight.Add(-1)
		w.appendErrors.Add(n)
		return 0, ErrClosed
	}
	if ep := w.fail.Load(); ep != nil {
		w.inflight.Add(-1)
		w.appendErrors.Add(n)
		return 0, *ep
	}
	var t0 time.Time
	var last uint64
	for len(recs) > 0 {
		// A reservation holds at most a ring's worth of tickets, so no
		// ticket is taken more than a lap ahead of the slots its producer
		// has published, and appenders behind a long run wait on one lap
		// of it, not the whole run.
		k := uint64(min(len(recs), ringSize))
		t := w.head.Add(k) - k
		if t0.IsZero() && crossesMultiple(t, k, appendSampleEvery) {
			t0 = time.Now()
		}
		for i := range recs[:k] {
			w.publish(t+uint64(i), &recs[i])
		}
		recs = recs[k:]
		last = w.base + t + k - 1
		if w.opt.Sync == SyncAlways || crossesMultiple(t, k, pokeStride) {
			select {
			case w.encC <- struct{}{}:
			default:
			}
		}
	}
	w.inflight.Add(-1)
	if w.opt.Sync == SyncAlways {
		if err := w.syncTo(last); err != nil {
			w.appendErrors.Add(n)
			return last, err
		}
	}
	if !t0.IsZero() {
		// Sampled run: the histogram sees ring backpressure and (for
		// SyncAlways) the group-commit wait — the latency an ingesting
		// caller actually pays.
		w.appendH.RecordSince(t0)
	}
	return last, nil
}

// publish stores rec into ticket t's ring slot and hands the slot to
// the encoder, first waiting out a ring that is a full lap ahead of it.
//
//mb:noalloc
func (w *WAL) publish(t uint64, rec *Record) {
	slot := &w.ring[t&ringMask]
	for spin := 0; slot.turn.Load() != t; spin++ {
		// Poke the encoder and yield; slots free as it drains, even when
		// the segment is failing (the encoder discards instead of wedging
		// the ring).
		if spin&63 == 0 {
			select {
			case w.encC <- struct{}{}:
			default:
			}
		}
		runtime.Gosched()
	}
	slot.rec = *rec
	slot.turn.Store(t + 1)
}

// crossesMultiple reports whether the k tickets from t hold a multiple
// of stride: the run meets the point where a ticket at a time would have
// acted.
func crossesMultiple(t, k, stride uint64) bool {
	return t%stride == 0 || t/stride != (t+k-1)/stride
}

// appendSampleEvery is the append histogram's sampling stride in
// tickets: a run is timed when one of its tickets is a multiple.
const appendSampleEvery = 64

// failLocked records a sticky segment error and mirrors it into the
// atomic pointer the lock-free accept path checks. Caller holds w.mu.
func (w *WAL) failLocked(err error) {
	w.writeErr = err
	w.fail.Store(&err)
}

// waitWriteLocked blocks until no background write is in flight.
// Caller holds w.mu; the wait releases it, so callers must recheck any
// state they decided on beforehand.
func (w *WAL) waitWriteLocked() {
	for w.writing {
		w.wrDone.Wait()
	}
}

// flushLocked hands the append buffer to the OS synchronously. Caller
// holds w.mu; the wait at the top keeps this write ordered after any
// chunk the background writer still holds.
func (w *WAL) flushLocked() error {
	w.waitWriteLocked()
	if w.writeErr != nil {
		return w.writeErr
	}
	if len(w.buf) == 0 {
		return nil
	}
	t0 := time.Now()
	if _, err := w.f.Write(w.buf); err != nil {
		w.failLocked(err)
		return err
	}
	w.flushH.RecordSince(t0)
	w.buf, w.spare = w.spare[:0], w.buf[:0]
	w.flushes.Add(1)
	w.flushed.Store(w.nextSeq - 1)
	return nil
}

// flushWritten drains the chunk buffer through the writer goroutine:
// the buffer is swapped with the spare under mu and written with mu
// released, so the encoder frames into the fresh buffer while the
// device absorbs the full one — a double buffer, with the encoder and
// the writer each owning one side. The loop keeps the device busy
// while a backlog remains instead of bouncing through the select loop.
// Only the writer goroutine calls this.
func (w *WAL) flushWritten() error {
	w.mu.Lock()
	for {
		if w.closed || w.writeErr != nil || len(w.buf) == 0 {
			err := w.writeErr
			w.mu.Unlock()
			return err
		}
		data := w.buf
		w.buf = w.spare[:0]
		w.spare = nil
		f := w.f
		hi := w.nextSeq - 1
		w.writing = true
		// The chunk buffer just emptied: wake an encoder parked on the
		// backpressure bound before the write, not after it.
		w.wrDone.Broadcast()
		w.mu.Unlock()
		t0 := time.Now()
		_, err := f.Write(data)
		if err == nil {
			w.flushH.RecordSince(t0)
		}
		w.mu.Lock()
		w.writing = false
		w.spare = data[:0]
		if err != nil {
			w.failLocked(err)
			w.wrDone.Broadcast()
			w.mu.Unlock()
			return err
		}
		w.flushes.Add(1)
		advanceMax(&w.flushed, hi)
		w.wrDone.Broadcast()
		if len(w.buf) < flushChunk {
			w.mu.Unlock()
			return nil
		}
		select {
		case <-w.stop:
			// Close is waiting on the loops; it drains the rest.
			w.mu.Unlock()
			return nil
		default:
		}
	}
}

// syncTo makes every record up to seq durable: wait for the encoder
// to frame it, flush the chunk buffer, fsync. Callers landing while
// another fsync is in flight block on syncMu and usually find their
// records already covered when they get it — the group commit.
func (w *WAL) syncTo(seq uint64) error {
	if w.durable.Load() >= seq {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.durable.Load() >= seq {
		return nil
	}
	w.mu.Lock()
	for w.nextSeq <= seq && w.writeErr == nil && !w.closed {
		// The encoder has not consumed our ticket yet; poke it and
		// wait for the watermark to advance.
		select {
		case w.encC <- struct{}{}:
		default:
		}
		w.encCond.Wait()
	}
	if err := w.flushLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	f := w.f
	hi := w.flushed.Load()
	w.mu.Unlock()
	if f == nil {
		// Close sealed the log while we waited; if its final sync
		// covered seq the record is durable all the same.
		if w.durable.Load() >= seq {
			return nil
		}
		return ErrClosed
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		// A concurrent rotation can seal (sync + close) the file under
		// us; if that made seq durable, this sync already happened.
		if w.durable.Load() >= seq {
			return nil
		}
		return err
	}
	w.syncH.RecordSince(t0)
	w.syncs.Add(1)
	advanceMax(&w.durable, hi)
	return nil
}

// Sync flushes and fsyncs everything appended so far, regardless of
// policy — the explicit barrier for shutdown paths and tests.
func (w *WAL) Sync() error {
	return w.syncTo(w.base + w.head.Load() - 1)
}

// DurableSeq returns the highest sequence number known to be fsynced.
func (w *WAL) DurableSeq() uint64 { return w.durable.Load() }

// encodeLoop is the middle pipeline stage: it drains the ring on
// pokes and on the SyncInterval tick, frames records into the chunk
// buffer, and runs the per-tick maintenance (flush, fsync policy,
// age rotation). It exits only after a final drain, so every record
// published before Close reaches the buffer.
func (w *WAL) encodeLoop() {
	defer close(w.encDone)
	t := time.NewTicker(w.opt.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			for w.drain() {
			}
			w.mu.Lock()
			w.encCond.Broadcast()
			w.mu.Unlock()
			return
		case <-w.encC:
			if w.drain() {
				// More remains: re-poke ourselves instead of looping
				// here, so the tick (and stop) cases stay live under
				// sustained ingest.
				select {
				case w.encC <- struct{}{}:
				default:
				}
			}
		case <-t.C:
			if w.drain() {
				select {
				case w.encC <- struct{}{}:
				default:
				}
			}
			w.tickMaintenance()
		}
	}
}

// drain consumes ready ring slots in ticket order, framing each record
// into the chunk buffer with its sequence number and CRC. It reports
// whether ready slots remain, and bounds its own run so the encode
// loop's select stays responsive. When the segment is failing it
// discards instead of buffering — the ring must keep turning or
// producers would spin forever on a full lap.
func (w *WAL) drain() (more bool) {
	for pass := 0; pass < 16; pass++ {
		w.mu.Lock()
		n := 0
		for n < drainBatch {
			slot := &w.ring[w.tail&ringMask]
			if slot.turn.Load() != w.tail+1 {
				break
			}
			if w.writeErr == nil {
				was := len(w.buf)
				w.buf = appendFrame(w.buf, w.nextSeq, &slot.rec)
				w.segBytes += int64(len(w.buf) - was)
			} else {
				w.appendErrors.Add(1)
			}
			slot.rec = Record{} // release the references for GC
			slot.turn.Store(w.tail + ringSize)
			w.tail++
			w.nextSeq++
			n++
			if w.segBytes >= w.opt.SegmentBytes && !w.writing && w.writeErr == nil {
				// Rotate at the exact record that crossed the bound,
				// as a synchronous appender would have; while a chunk
				// is in flight the tick rotates instead, so a
				// saturated device cannot stall the ring.
				if err := w.rotateLocked(); err != nil {
					w.opt.Logger.Printf("wal: rotate: %v", err)
				}
			}
		}
		if n > 0 {
			w.encCond.Broadcast()
		}
		if len(w.buf) >= flushChunk {
			// Hand the chunk to the writer; the encoder pays a channel
			// poke, not a device write.
			select {
			case w.flushC <- struct{}{}:
			default:
			}
			if len(w.buf) >= maxBuffered {
				// The writer is behind: park until it swaps the buffer
				// out, keeping memory bounded by the device, not the
				// ingest rate.
				for len(w.buf) >= maxBuffered && w.writing && w.writeErr == nil {
					w.wrDone.Wait()
				}
				if len(w.buf) >= maxBuffered && w.writeErr == nil {
					// The writer is idle yet the backlog stands — it
					// missed the poke or is between chunks; drain
					// inline rather than trust it.
					if err := w.flushLocked(); err != nil {
						w.opt.Logger.Printf("wal: flush: %v", err)
					}
				}
			}
		}
		more = w.ring[w.tail&ringMask].turn.Load() == w.tail+1
		w.mu.Unlock()
		if !more {
			return false
		}
	}
	return true
}

// tickMaintenance runs once per SyncInterval: flush whatever the ring
// drained this interval, fsync it under SyncBatched (the bounded-loss
// window of a kill -9), and rotate segments past their size or age.
func (w *WAL) tickMaintenance() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	hi := w.nextSeq - 1
	if w.nextSeq > w.segFirst &&
		(time.Since(w.segCreated) >= w.opt.SegmentAge || w.segBytes >= w.opt.SegmentBytes) {
		if err := w.rotateLocked(); err != nil {
			w.opt.Logger.Printf("wal: rotate: %v", err)
		}
	}
	w.mu.Unlock()
	switch w.opt.Sync {
	case SyncBatched:
		if err := w.syncTo(hi); err != nil {
			w.opt.Logger.Printf("wal: sync: %v", err)
		}
	case SyncOff:
		w.mu.Lock()
		if err := w.flushLocked(); err != nil {
			w.opt.Logger.Printf("wal: flush: %v", err)
		}
		w.mu.Unlock()
	}
}

// writeLoop is the last pipeline stage: it owns the device, writing
// full chunks as the encoder hands them over so a slow disk shows up
// as buffered bytes, never as append latency.
func (w *WAL) writeLoop() {
	defer close(w.writeDone)
	for {
		select {
		case <-w.stop:
			return
		case <-w.flushC:
			if err := w.flushWritten(); err != nil {
				w.opt.Logger.Printf("wal: flush: %v", err)
			}
		}
	}
}

// rotateLocked seals the active segment (flush, fsync unless SyncOff,
// close), prunes history, opens a successor and rewrites the manifest.
// Caller holds w.mu. Rotating an empty segment is a no-op.
func (w *WAL) rotateLocked() error {
	if w.nextSeq == w.segFirst {
		return nil
	}
	defer w.rotateH.RecordSince(time.Now())
	if err := w.flushLocked(); err != nil {
		return err
	}
	if w.opt.Sync != SyncOff {
		if err := w.f.Sync(); err != nil {
			w.failLocked(err)
			return err
		}
		w.syncs.Add(1)
		advanceMax(&w.durable, w.flushed.Load())
	}
	if err := w.f.Close(); err != nil {
		w.failLocked(err)
		return err
	}
	w.sealed = append(w.sealed, segmentInfo{
		File:       w.fname,
		FirstSeq:   w.segFirst,
		LastSeq:    w.nextSeq - 1,
		Records:    int(w.nextSeq - w.segFirst),
		Bytes:      w.segBytes,
		SealedUnix: time.Now().Unix(),
	})
	w.opt.Logger.Printf("wal: sealed %s (%d records, %d bytes)", w.fname, w.nextSeq-w.segFirst, w.segBytes)
	w.pruneLocked()
	if err := w.openSegmentLocked(); err != nil {
		w.failLocked(err)
		return err
	}
	w.writeManifestLocked()
	return nil
}

// pruneLocked removes sealed segments outside the retention window or
// beyond the byte budget, oldest first. Caller holds w.mu.
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
// header. Caller holds w.mu.
func (w *WAL) openSegmentLocked() error {
	w.segFirst = w.nextSeq
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
	w.writeErr = nil
	w.fail.Store(nil)
	return nil
}

// drainBarrier blocks until the encoder has consumed every ticket
// taken before the call, so segment state — rotation, pruning, the
// sequence watermark — reflects all accepted appends. Appends landing
// concurrently are not waited for. Callers must not hold w.mu.
func (w *WAL) drainBarrier() {
	target := w.base + w.head.Load()
	if target == w.base {
		return
	}
	w.mu.Lock()
	for w.nextSeq < target && !w.closed {
		select {
		case w.encC <- struct{}{}:
		default:
		}
		w.encCond.Wait()
	}
	w.mu.Unlock()
}

// Rotate seals the active segment now — the manual form of the size
// and age triggers, for tests and admin tooling.
func (w *WAL) Rotate() error {
	w.drainBarrier()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.rotateLocked()
}

// Close stops accepting appends, waits for in-flight producers to
// publish, drains the ring and the chunk buffer, fsyncs (unless
// SyncOff) and seals the log. Idempotent.
func (w *WAL) Close() error {
	w.stopOnce.Do(func() {
		w.closedA.Store(true)
		// Producers past the accept gate hold an inflight token until
		// their slot is published; wait them out so the encoder's
		// final drain sees every accepted record.
		for w.inflight.Load() > 0 {
			runtime.Gosched()
		}
		close(w.stop)
	})
	<-w.encDone
	<-w.writeDone
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.flushLocked()
	if w.f != nil {
		if err == nil && w.opt.Sync != SyncOff {
			if serr := w.f.Sync(); serr != nil {
				err = serr
			} else {
				w.syncs.Add(1)
				advanceMax(&w.durable, w.flushed.Load())
			}
		}
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	if w.nextSeq > w.segFirst {
		// The final active segment becomes sealed history.
		w.sealed = append(w.sealed, segmentInfo{
			File:       w.fname,
			FirstSeq:   w.segFirst,
			LastSeq:    w.nextSeq - 1,
			Records:    int(w.nextSeq - w.segFirst),
			Bytes:      w.segBytes,
			SealedUnix: time.Now().Unix(),
		})
	} else if w.fname != "" {
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
// ring backpressure and SyncAlways group commit; per write, per fsync,
// per rotation).
func (w *WAL) Metrics() obs.List {
	counter := func(key, help string, a *atomic.Uint64) obs.Metric {
		return obs.Metric{Name: "microserve_wal_" + key + "_total", Help: help, Kind: obs.KindCounter,
			Block: "wal", Key: key, Value: func() float64 { return float64(a.Load()) }}
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
		// The inventory comes first: the barrier it takes lets every
		// reading after it in a scrape see the appends accepted before.
		gauge("segments", "Live segment files.", func() float64 { n, _ := w.inventory(); return float64(n) }),
		gauge("bytes", "Total log bytes (including buffered).", func() float64 { _, b := w.inventory(); return float64(b) }),
		counter("appended", "Records appended to the feedback WAL.", &w.head),
		counter("append_errors", "WAL appends that failed.", &w.appendErrors),
		counter("flushes", "Append-buffer flushes to the OS.", &w.flushes),
		counter("syncs", "fsync calls.", &w.syncs),
		counter("replayed", "Records replayed at boot.", &w.replayed),
		counter("corrupt_skipped", "Corrupt records skipped during replay.", &w.corrupt),
		counter("truncated_bytes", "Torn-tail bytes truncated during recovery.", &w.truncatedBytes),
		counter("pruned_segments", "Sealed segments pruned.", &w.prunedSegments),
		gauge("durable_seq", "Highest fsynced sequence number.", func() float64 { return float64(w.durable.Load()) }),
		gauge("next_seq", "Next sequence number to be appended.", func() float64 { return float64(w.base + w.head.Load()) }),
		op("append", &w.appendH),
		op("flush", &w.flushH),
		op("sync", &w.syncH),
		op("rotate", &w.rotateH),
	}
}

// inventory counts the live segment files and their bytes. It waits for
// the encoder to catch up to the appends accepted before the call, so
// what it reports is current as of the read.
func (w *WAL) inventory() (segments int, bytes int64) {
	w.drainBarrier()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.sealed {
		bytes += s.Bytes
	}
	segments = len(w.sealed)
	if !w.closed {
		segments++
		bytes += w.segBytes
	}
	return segments, bytes
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
		NextSeq:     w.nextSeq,
		Active:      w.fname,
		Segments:    w.sealed,
		UpdatedUnix: time.Now().Unix(),
	}
	if w.closed {
		m.Active = ""
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

// advanceMax lifts an atomic watermark to at least v.
func advanceMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
