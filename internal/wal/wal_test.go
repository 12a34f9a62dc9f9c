package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clickmodel"
)

// sessRec builds a session record with a recognisable query.
func sessRec(i int) Record {
	return Record{Session: &clickmodel.Session{
		Query:  fmt.Sprintf("q%d", i),
		Docs:   []string{"a", "b"},
		Clicks: []bool{true, false},
	}}
}

// snipRec builds a snippet-feedback record.
func snipRec(i int) Record {
	return Record{
		SnippetLines: []string{fmt.Sprintf("cheap flights %d", i), "book now"},
		Impressions:  50,
		Clicks:       i % 7,
	}
}

// bothRec carries a session and a snippet in one frame.
func bothRec(i int) Record {
	r := sessRec(i)
	s := snipRec(i)
	r.SnippetLines, r.Impressions, r.Clicks = s.SnippetLines, s.Impressions, s.Clicks
	return r
}

func mustOpen(t *testing.T, dir string, opt Options) *WAL {
	t.Helper()
	w, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w
}

// rotate seals the active segment now, as the size and age triggers do.
func rotate(w *WAL) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrClosed
	}
	if err := w.frameLocked(); err != nil {
		return err
	}
	return w.rotateLocked()
}

// replayAll collects every retained record.
func replayAll(t *testing.T, w *WAL) []Record {
	t.Helper()
	var out []Record
	err := w.Replay(func(seq uint64, rec *Record) error {
		if want := uint64(len(out) + 1); seq < want {
			t.Fatalf("replay seq %d went backwards (have %d records)", seq, len(out))
		}
		cp := *rec
		if rec.Session != nil {
			s := *rec.Session
			cp.Session = &s
		}
		cp.SnippetLines = append([]string(nil), rec.SnippetLines...)
		out = append(out, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncAlways})
	want := []Record{sessRec(0), snipRec(1), bothRec(2), sessRec(3)}
	for i, r := range want {
		seq, err := w.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq = %d", i, seq)
		}
	}
	if got := w.durable.Load(); got != 4 {
		t.Fatalf("durable = %d after SyncAlways appends, want 4", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, Options{})
	got := replayAll(t, w2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if (want[i].Session == nil) != (got[i].Session == nil) {
			t.Fatalf("record %d session presence mismatch", i)
		}
		if want[i].Session != nil && got[i].Session.Query != want[i].Session.Query {
			t.Fatalf("record %d query = %q, want %q", i, got[i].Session.Query, want[i].Session.Query)
		}
		if want[i].Session != nil && !got[i].Session.Clicks[0] {
			t.Fatalf("record %d lost its click bits", i)
		}
		if len(want[i].SnippetLines) > 0 {
			if got[i].SnippetLines[0] != want[i].SnippetLines[0] ||
				got[i].Impressions != want[i].Impressions || got[i].Clicks != want[i].Clicks {
				t.Fatalf("record %d snippet mismatch: %+v vs %+v", i, got[i], want[i])
			}
		}
	}
	c := w2.Metrics().Read()
	if c["wal.replayed"] != 4 || c["wal.corrupt_skipped"] != 0 || c["wal.truncated_bytes"] != 0 {
		t.Fatalf("counters after clean replay: %+v", c)
	}
}

func TestAppendValidation(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{})
	if _, err := w.Append(Record{}); err == nil {
		t.Fatal("empty record accepted")
	}
	if _, err := w.Append(sessRec(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(sessRec(2)); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := w.Append(sessRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, Options{})
	seq, err := w2.Append(sessRec(5))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("first seq after reopen = %d, want 6", seq)
	}
	if got := replayAll(t, w2); len(got) != 5 {
		t.Fatalf("replay after reopen = %d records, want the 5 from the first run", len(got))
	}
}

func TestRotationAndManifest(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several rotations under a handful of appends.
	w := mustOpen(t, dir, Options{SegmentBytes: 256, Sync: SyncOff})
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := w.Append(sessRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatalf("manifest is not JSON: %v", err)
	}
	if len(man.Segments) != len(segs) {
		t.Fatalf("manifest lists %d segments, directory has %d", len(man.Segments), len(segs))
	}
	if man.NextSeq != n+1 {
		t.Fatalf("manifest next_seq = %d, want %d", man.NextSeq, n+1)
	}

	w2 := mustOpen(t, dir, Options{})
	if got := replayAll(t, w2); len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
}

func TestPruneMaxBytes(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{SegmentBytes: 256, MaxBytes: 1024, Sync: SyncOff})
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := w.Append(sessRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := w.Metrics().Read()
	if c["wal.pruned_segments"] == 0 {
		t.Fatalf("no segments pruned under a 1KiB budget: %+v", c)
	}
	if c["wal.bytes"] > 1024+256 {
		t.Fatalf("log holds %v bytes, budget 1024 (+1 segment slack)", c["wal.bytes"])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The pruned history is gone, the tail survives, and the sequence
	// space never rewinds past what the manifest recorded.
	w2 := mustOpen(t, dir, Options{})
	got := replayAll(t, w2)
	if len(got) == 0 || len(got) >= n {
		t.Fatalf("replayed %d records, want a proper pruned suffix of %d", len(got), n)
	}
	if c2 := w2.Metrics().Read(); c2["wal.next_seq"] != float64(n+1) {
		t.Fatalf("NextSeq after prune+reopen = %v, want %v", c2["wal.next_seq"], n+1)
	}
}

func TestPruneRetention(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncOff, Retention: time.Hour})
	if _, err := w.Append(sessRec(0)); err != nil {
		t.Fatal(err)
	}
	if err := rotate(w); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(sessRec(1)); err != nil {
		t.Fatal(err)
	}

	// Backdate the sealed segment far past the retention window, then
	// rotate again: pruning keys off the manifest's sealed time.
	w.mu.Lock()
	w.sealed[0].SealedUnix = time.Now().Add(-2 * time.Hour).Unix()
	w.mu.Unlock()
	if err := rotate(w); err != nil {
		t.Fatal(err)
	}
	if c := w.Metrics().Read(); c["wal.pruned_segments"] != 1 {
		t.Fatalf("PrunedSegments = %v, want 1: %+v", c["wal.pruned_segments"], c)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := mustOpen(t, dir, Options{})
	got := replayAll(t, w2)
	if len(got) != 1 || got[0].Session.Query != "q1" {
		t.Fatalf("retained records = %+v, want only q1", got)
	}
}

func TestSeqFloorSurvivesLostSegments(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	for i := 0; i < 9; i++ {
		if _, err := w.Append(sessRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// All data files vanish (disk swap, manual cleanup) but the
	// manifest survives: sequence numbers must not be reissued.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, s := range segs {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	w2 := mustOpen(t, dir, Options{})
	seq, err := w2.Append(sessRec(9))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 10 {
		t.Fatalf("seq after losing segments = %d, want the manifest floor 10", seq)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := w.Append(sessRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	// Simulate a crash mid-write: a frame header promising more payload
	// than the file holds.
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(segs[0])

	w2 := mustOpen(t, dir, Options{})
	if got := replayAll(t, w2); len(got) != 10 {
		t.Fatalf("replayed %d records, want the 10 whole ones", len(got))
	}
	c := w2.Metrics().Read()
	if c["wal.truncated_bytes"] != float64(len(torn)) {
		t.Fatalf("TruncatedBytes = %v, want %v", c["wal.truncated_bytes"], len(torn))
	}
	after, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("torn tail not cut: %d -> %d", before.Size(), after.Size())
	}
}

// TestCorruptEveryByte is the exhaustive recovery property: flip every
// single byte of a multi-segment log, one at a time, and require that
// recovery plus replay never fails and never invents records — what
// survives is always a subset of what was written.
func TestCorruptEveryByte(t *testing.T) {
	master := t.TempDir()
	w := mustOpen(t, master, Options{SegmentBytes: 512, Sync: SyncOff})
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := w.Append(sessRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("want a multi-segment log, got %v", segs)
	}

	valid := map[string]bool{}
	for i := 0; i < n; i++ {
		valid[fmt.Sprintf("q%d", i)] = true
	}

	for _, seg := range segs {
		orig, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(orig); off++ {
			dir := t.TempDir()
			for _, s := range segs {
				b, _ := os.ReadFile(s)
				if s == seg {
					b = append([]byte(nil), b...)
					b[off] ^= 0xff
				}
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(s)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			w2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("%s byte %d: open: %v", filepath.Base(seg), off, err)
			}
			replayed := 0
			err = w2.Replay(func(_ uint64, rec *Record) error {
				replayed++
				if rec.Session == nil || !valid[rec.Session.Query] {
					t.Fatalf("%s byte %d: replay invented %+v", filepath.Base(seg), off, rec)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s byte %d: replay: %v", filepath.Base(seg), off, err)
			}
			if replayed > n {
				t.Fatalf("%s byte %d: replayed %d > written %d", filepath.Base(seg), off, replayed, n)
			}
			c := w2.Metrics().Read()
			if replayed < n && c["wal.corrupt_skipped"] == 0 && c["wal.truncated_bytes"] == 0 {
				t.Fatalf("%s byte %d: lost %d records without a counter: %+v",
					filepath.Base(seg), off, n-replayed, c)
			}
			_ = w2.Close() // WAL opened on deliberately corrupted bytes
			os.RemoveAll(dir)
		}
	}
}

func TestConcurrentSyncAlwaysGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncAlways})
	const (
		writers = 8
		each    = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := w.Append(sessRec(g*each + i))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if w.durable.Load() < seq {
					t.Errorf("append returned before seq %d was durable (durable %d)", seq, w.durable.Load())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c := w.Metrics().Read()
	if c["wal.appended"] != float64(writers*each) {
		t.Fatalf("Appended = %v, want %v", c["wal.appended"], writers*each)
	}
	if c["wal.syncs"] >= c["wal.appended"] {
		t.Logf("no group commit observed (%v syncs for %v appends) — legal but slow", c["wal.syncs"], c["wal.appended"])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := mustOpen(t, dir, Options{})
	if got := replayAll(t, w2); len(got) != writers*each {
		t.Fatalf("replayed %d, want %d", len(got), writers*each)
	}
}

func TestSyncBarrier(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{SyncInterval: time.Hour}) // flusher effectively off
	for i := 0; i < 7; i++ {
		if _, err := w.Append(sessRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.durable.Load(); got != 0 {
		t.Fatalf("durable before barrier = %d, want 0", got)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.durable.Load(); got != 7 {
		t.Fatalf("durable after barrier = %d, want 7", got)
	}
}

func TestCodecRejectsTampering(t *testing.T) {
	rec := bothRec(3)
	frame := appendFrame(nil, 9, &rec)
	payload := frame[frameHeaderLen:]
	seq, got, err := decodePayload(payload)
	if err != nil || seq != 9 {
		t.Fatalf("decode: seq %d, err %v", seq, err)
	}
	if got.Session.Query != "q3" || got.Impressions != 50 {
		t.Fatalf("decoded %+v", got)
	}
	// Truncated payloads and trailing garbage must both fail loudly.
	if _, _, err := decodePayload(payload[:len(payload)-1]); err == nil {
		t.Fatal("truncated payload decoded")
	}
	if _, _, err := decodePayload(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("trailing garbage decoded")
	}
	if _, _, err := decodePayload([]byte{0}); err == nil {
		t.Fatal("payload with no flags decoded")
	}
}

func TestSegmentHeaderVersionGate(t *testing.T) {
	hdr := appendSegmentHeader(nil, 42, 1700000000)
	first, created, n, err := parseSegmentHeader(hdr)
	if err != nil || first != 42 || created != 1700000000 || n != len(hdr) {
		t.Fatalf("parse: %d %d %d %v", first, created, n, err)
	}
	bad := append([]byte(nil), hdr...)
	bad[len(segMagic)] = 99 // future format version
	if _, _, _, err := parseSegmentHeader(bad); err == nil {
		t.Fatal("future version accepted")
	}
	if _, _, _, err := parseSegmentHeader([]byte("nope")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[SyncPolicy]string{SyncBatched: "batched", SyncAlways: "always", SyncOff: "off"} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

// TestBatchedAppendAllocates pins the hot-path guarantee: steady-state
// batched appends do not allocate, one at a time (Append) or as a run
// (AppendRun, whose records publish one slot each).
func TestBatchedAppendAllocates(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{SyncInterval: time.Hour})
	rec := sessRec(1)
	run := []Record{sessRec(2), snipRec(3), bothRec(4), sessRec(5)}
	// Warm the append buffer and the encoder scratch.
	for i := 0; i < 2000; i++ {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched Append allocates %.1f objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(500, func() {
		if _, err := w.AppendRun(run); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched AppendRun of %d records allocates %.1f objects/op, want 0", len(run), allocs)
	}
}

// segmentFrames reads a closed log's segments in order and returns,
// for each, its first sequence and the bytes after its header — what
// the log wrote, less the creation time in the header.
func segmentFrames(t *testing.T, dir string) (firsts []uint64, frames [][]byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		first, _, n, err := parseSegmentHeader(b)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		firsts, frames = append(firsts, first), append(frames, b[n:])
	}
	return firsts, frames
}

// TestAppendRunMatchesAppends: records appended as runs leave the same
// segment files as the same records appended one by one — every frame
// byte for byte, the same rotations — including a run across the fill
// mark, one longer than the pending bound, and enough records that the
// framed bytes pass maxBuffered before a segment rotates. Replay
// returns them in order, and each run's reply is its last sequence.
func TestAppendRunMatchesAppends(t *testing.T) {
	var recs []Record
	for i := 0; len(recs) < 5*maxPending; i++ {
		recs = append(recs, sessRec(i), snipRec(i), bothRec(i))
	}
	// Run lengths: singles, a run across the fill mark, one longer than
	// the pending bound, and the rest as bodies of a few hundred.
	runs := []int{1, 1, fillMark, maxPending + 7}
	for n := 2 + fillMark + maxPending + 7; n < len(recs); n += 220 {
		runs = append(runs, min(220, len(recs)-n))
	}

	opt := Options{Sync: SyncOff, SyncInterval: time.Hour, SegmentBytes: maxBuffered + maxBuffered/4}
	oneDir, runDir := t.TempDir(), t.TempDir()
	one := mustOpen(t, oneDir, opt)
	for i := range recs {
		if seq, err := one.Append(recs[i]); err != nil || seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d, %v", i, seq, err)
		}
	}
	w := mustOpen(t, runDir, opt)
	at := 0
	for _, n := range runs {
		last, err := w.AppendRun(recs[at : at+n])
		if at += n; err != nil || last != uint64(at) {
			t.Fatalf("run of %d ending at record %d: last seq %d, %v", n, at, last, err)
		}
	}
	if at != len(recs) {
		t.Fatalf("the runs cover %d of %d records", at, len(recs))
	}
	for _, l := range []*WAL{one, w} {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	wantFirst, want := segmentFrames(t, oneDir)
	gotFirst, got := segmentFrames(t, runDir)
	if len(want) < 2 || !reflect.DeepEqual(gotFirst, wantFirst) {
		t.Fatalf("segments start at %v as runs, %v one by one (the test wants several)", gotFirst, wantFirst)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("segment %d (first seq %d): %d frame bytes as runs, %d one by one, first difference at %d",
				i, wantFirst[i], len(got[i]), len(want[i]), firstDiff(got[i], want[i]))
		}
	}

	back := replayAll(t, mustOpen(t, runDir, Options{}))
	if len(back) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(back[i], recs[i]) {
			t.Fatalf("record %d replays as %+v, want %+v", i, back[i], recs[i])
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestAppendRunSyncAlways: under SyncAlways a run returns only once its
// last sequence is durable, with concurrent runs group-committing; an
// empty run appends nothing and a run holding an empty record is
// refused whole.
func TestAppendRunSyncAlways(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncAlways})
	if last, err := w.AppendRun(nil); last != 0 || err != nil {
		t.Fatalf("empty run: %d, %v", last, err)
	}
	if _, err := w.AppendRun([]Record{sessRec(0), {}}); err == nil {
		t.Fatal("a run holding an empty record was accepted")
	}
	const writers, runs, each = 4, 10, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := make([]Record, each)
			for r := 0; r < runs; r++ {
				for i := range run {
					run[i] = sessRec((g*runs+r)*each + i)
				}
				last, err := w.AppendRun(run)
				if err != nil {
					t.Errorf("run: %v", err)
					return
				}
				if w.durable.Load() < last {
					t.Errorf("a run returned before its last seq %d was durable (durable %d)", last, w.durable.Load())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c := w.Metrics().Read(); c["wal.appended"] != writers*runs*each || c["wal.append_errors"] != 0 {
		t.Fatalf("counters after the runs: %+v", c)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, mustOpen(t, dir, Options{}))
	if len(got) != writers*runs*each {
		t.Fatalf("replayed %d, want %d", len(got), writers*runs*each)
	}
	// Runs may interleave with each other, never within themselves.
	for i := 0; i < len(got); i += each {
		var first int
		fmt.Sscanf(got[i].Session.Query, "q%d", &first)
		for j := 0; j < each; j++ {
			if want := fmt.Sprintf("q%d", first+j); got[i+j].Session.Query != want {
				t.Fatalf("record %d of a run replays as %q, want %q", j, got[i+j].Session.Query, want)
			}
		}
	}
}

func TestManifestHumanReadable(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	if _, err := w.Append(sessRec(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("\n")) || !strings.Contains(string(raw), "next_seq") {
		t.Fatalf("manifest should be indented JSON with next_seq, got %q", raw)
	}
}

// TestCloseRacesAppendRun: Close lands while eight goroutines append
// runs. Every run that returned nil replays in order under the
// sequences it was given, every run refused with ErrClosed replays
// nowhere, and nothing hangs.
func TestCloseRacesAppendRun(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncBatched, SyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{Sync: policy})
			if err != nil {
				t.Fatal(err)
			}
			type run struct {
				r, n int
				last uint64
			}
			name := func(g, r, i int) string { return fmt.Sprintf("g%d r%d i%d", g, r, i) }
			const writers = 8
			var (
				wg       sync.WaitGroup
				started  atomic.Int64
				accepted [writers][]run
				refused  [writers][]run
			)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; ; r++ {
						recs := make([]Record, 1+r%5)
						for i := range recs {
							recs[i] = Record{SnippetLines: []string{name(g, r, i)}, Impressions: 1}
						}
						started.Add(1)
						last, err := w.AppendRun(recs)
						switch {
						case err == nil:
							accepted[g] = append(accepted[g], run{r, len(recs), last})
						case errors.Is(err, ErrClosed):
							refused[g] = append(refused[g], run{r, len(recs), last})
							return
						default:
							t.Errorf("writer %d run %d: %v", g, r, err)
							return
						}
					}
				}(g)
			}
			for started.Load() < 500 {
				time.Sleep(time.Millisecond)
			}
			closed := make(chan error, 1)
			go func() { closed <- w.Close() }()
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(30 * time.Second):
				t.Fatal("AppendRun racing Close hung")
			}
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("close: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Close racing AppendRun hung")
			}

			lines := map[uint64]string{}
			seen := map[string]bool{}
			err = mustOpen(t, dir, Options{}).Replay(func(seq uint64, rec *Record) error {
				lines[seq] = rec.SnippetLines[0]
				seen[rec.SnippetLines[0]] = true
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for g := range accepted {
				for _, a := range accepted[g] {
					for i := 0; i < a.n; i++ {
						seq := a.last - uint64(a.n-1-i)
						if got := lines[seq]; got != name(g, a.r, i) {
							t.Fatalf("seq %d replays as %q, want %q", seq, got, name(g, a.r, i))
						}
					}
					total += a.n
				}
				for _, a := range refused[g] {
					for i := 0; i < a.n; i++ {
						if seen[name(g, a.r, i)] {
							t.Fatalf("%q was refused with ErrClosed yet replays", name(g, a.r, i))
						}
					}
				}
			}
			if len(lines) != total {
				t.Fatalf("replayed %d records, the accepted runs hold %d", len(lines), total)
			}
		})
	}
}

// TestWriteFailureIsSticky: once a write to the active segment fails,
// every later AppendRun returns that error at once and takes nothing,
// Close returns it, and a reopened log replays the prefix written
// before the failure, gap-free, with nothing counted corrupt.
func TestWriteFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const written = 5
	for i := 0; i < written; i++ {
		if _, err := w.Append(sessRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Swap the active segment's file for a read-only handle on the same
	// file: the next write to it fails.
	w.mu.Lock()
	ro, err := os.Open(filepath.Join(dir, w.fname))
	if err != nil {
		w.mu.Unlock()
		t.Fatal(err)
	}
	good := w.f
	w.f = ro
	w.mu.Unlock()
	if err := good.Close(); err != nil {
		t.Fatal(err)
	}
	for i := written; i < written+3; i++ {
		if _, err := w.Append(sessRec(i)); err != nil {
			t.Fatalf("append %d before the failure showed: %v", i, err)
		}
	}
	werr := w.Sync()
	if werr == nil {
		t.Fatal("Sync wrote through a read-only file")
	}

	before := w.Metrics().Read()
	for i := 0; i < 3; i++ {
		if _, err := w.AppendRun([]Record{sessRec(10 + i), snipRec(10 + i)}); !errors.Is(err, werr) {
			t.Fatalf("AppendRun after the failure: %v, want %v", err, werr)
		}
	}
	after := w.Metrics().Read()
	for _, k := range []string{"wal.appended", "wal.next_seq", "wal.bytes"} {
		if after[k] != before[k] {
			t.Fatalf("%s moved from %v to %v: a refused run was buffered", k, before[k], after[k])
		}
	}
	if got := after["wal.append_errors"] - before["wal.append_errors"]; got != 6 {
		t.Fatalf("append_errors grew by %v over three refused runs of two, want 6", got)
	}
	if err := w.Close(); !errors.Is(err, werr) {
		t.Fatalf("Close: %v, want %v", err, werr)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 1 || man.Segments[0].LastSeq != written || man.Segments[0].Records != written {
		t.Fatalf("the manifest lists %+v, want one segment of the %d records written", man.Segments, written)
	}
	fi, err := os.Stat(filepath.Join(dir, man.Segments[0].File))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != man.Segments[0].Bytes {
		t.Fatalf("the manifest says %d bytes, the segment holds %d", man.Segments[0].Bytes, fi.Size())
	}

	w2 := mustOpen(t, dir, Options{})
	var seqs []uint64
	if err := w2.Replay(func(seq uint64, _ *Record) error { seqs = append(seqs, seq); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != written {
		t.Fatalf("replayed seqs %v, want the %d written before the failure", seqs, written)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("replayed seqs %v: not a gap-free prefix", seqs)
		}
	}
	if c := w2.Metrics().Read(); c["wal.corrupt_skipped"] != 0 {
		t.Fatalf("corrupt_skipped = %v after replaying a failed log, want 0", c["wal.corrupt_skipped"])
	}
}

// TestAppendWaitsForTheFlusher: with the flusher held off the device
// lock, appends past the pending bound wait instead of growing memory —
// a run that fits the bound waits to go in whole, a longer one fills
// the room there is — and every one of them lands once the flusher is
// let go, a fitting run under consecutive sequences.
func TestAppendWaitsForTheFlusher(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{SyncInterval: time.Hour})
	const short, extra = 5, 100
	var recs []Record
	for i := 0; i < 2*maxPending+short+extra; i++ {
		recs = append(recs, sessRec(i))
	}
	first, fits, long := recs[:maxPending-2], recs[maxPending-2:maxPending-2+short], recs[maxPending-2+short:]
	parked := func() (waiting, pending int, next uint64) {
		w.amu.Lock()
		defer w.amu.Unlock()
		return w.waiting, len(w.pending), w.nextSeq
	}
	waitParked := func(want int) {
		for n, _, _ := parked(); n < want; n, _, _ = parked() {
			time.Sleep(time.Millisecond)
		}
	}
	type reply struct {
		last uint64
		err  error
	}
	appendRun := func(run []Record) chan reply {
		c := make(chan reply, 1)
		go func() { last, err := w.AppendRun(run); c <- reply{last, err} }()
		return c
	}

	w.mu.Lock() // the flusher cannot swap pending out
	if _, err := w.AppendRun(first); err != nil {
		w.mu.Unlock()
		t.Fatal(err)
	}
	fitsC := appendRun(fits)
	waitParked(1)
	_, n1, next1 := parked()
	longC := appendRun(long)
	waitParked(2)
	_, n2, next2 := parked()
	w.mu.Unlock()
	if n1 != len(first) || next1 != uint64(len(first)+1) {
		t.Fatalf("a run of %d with room for 2 left pending at %d records, next seq %d: it must wait to go in whole",
			short, n1, next1)
	}
	if n2 != maxPending || next2 != maxPending+1 {
		t.Fatalf("pending held %d records, next seq %d, with a run past the bound parked: want %d and %d",
			n2, next2, maxPending, maxPending+1)
	}

	var fitsLast uint64
	for _, c := range []chan reply{fitsC, longC} {
		select {
		case r := <-c:
			if r.err != nil {
				t.Fatal(r.err)
			}
			if c == fitsC {
				fitsLast = r.last
			}
		case <-time.After(30 * time.Second):
			t.Fatal("an append stayed parked after the flusher was let go")
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, mustOpen(t, dir, Options{}))
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range first {
		if !reflect.DeepEqual(got[i], first[i]) {
			t.Fatalf("record %d replays as %+v, want %+v", i, got[i], first[i])
		}
	}
	for i := range fits {
		if at := int(fitsLast) - short + i; !reflect.DeepEqual(got[at], fits[i]) {
			t.Fatalf("record %d of the fitting run replays as %+v at seq %d, want %+v", i, got[at], at+1, fits[i])
		}
	}
}
