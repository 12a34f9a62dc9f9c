package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzOlderSegment is the sealed segment every fuzzed directory starts
// with: three whole records, sequences 1..3, so the bytes under test are
// judged against a sequence floor that is not zero.
func fuzzOlderSegment() []byte {
	b := appendSegmentHeader(nil, 1, 1700000000)
	for i, rec := range []Record{sessRec(1), snipRec(2), bothRec(3)} {
		b = appendFrame(b, uint64(i+1), &rec)
	}
	return b
}

// restampFrames walks seg the way recovery frames it and rewrites every
// whole frame's checksum to match its payload, so that mutated payload
// bytes reach the decoder instead of dying at the CRC.
func restampFrames(seg []byte) {
	_, _, off, err := parseSegmentHeader(seg)
	if err != nil {
		return
	}
	for len(seg)-off >= frameHeaderLen {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		if n == 0 || n > maxRecordLen || off+frameHeaderLen+n > len(seg) {
			return
		}
		payload := seg[off+frameHeaderLen : off+frameHeaderLen+n]
		binary.LittleEndian.PutUint32(seg[off+4:], crc32.Checksum(payload, castagnoli))
		off += frameHeaderLen + n
	}
}

// FuzzWALRecover writes arbitrary bytes as the newest segment of a log
// directory and recovers it. Whatever the bytes are, Open and Replay
// return an error or a record sequence with strictly increasing
// sequence numbers; what recovery could not frame at the newest
// segment's tail is cut off and counted, so the file left behind scans
// clean; and the records that came back are ones this log can hold —
// appended to a fresh log and replayed, they come back equal. Never a
// panic, an out-of-bounds read, or an allocation sized by a corrupt
// count.
func FuzzWALRecover(f *testing.F) {
	// A real segment: what a WAL writes for one record of each shape.
	dir := f.TempDir()
	w, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		f.Fatal(err)
	}
	for i, rec := range []Record{sessRec(4), snipRec(5), bothRec(6), sessRec(7)} {
		if _, err := w.Append(rec); err != nil {
			f.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		f.Fatalf("segments: %v", segs)
	}
	written, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	// The same four records continuing the older segment's sequence, so
	// the seeds below are accepted past its floor.
	_, _, hdrLen, err := parseSegmentHeader(written)
	if err != nil {
		f.Fatal(err)
	}
	real := appendSegmentHeader(nil, 4, 1700000100)
	bounds := []int{len(real)} // frame boundaries
	for i, rec := range []Record{sessRec(4), snipRec(5), bothRec(6), sessRec(7)} {
		real = appendFrame(real, uint64(i+4), &rec)
		bounds = append(bounds, len(real))
	}
	if len(real)-bounds[0] != len(written)-hdrLen {
		f.Fatalf("the WAL wrote %d frame bytes for these records, appendFrame %d", len(written)-hdrLen, len(real)-bounds[0])
	}

	f.Add(real, false)
	f.Add(written, false) // sequences 1..4: all at or under the floor
	f.Add([]byte{}, false)
	f.Add([]byte(segMagic), false)
	for _, b := range bounds {
		for _, cut := range []int{b - 1, b, b + 1} {
			if cut >= 0 && cut <= len(real) {
				f.Add(real[:cut:cut], false)
			}
		}
	}
	// Bit flips in the second frame's length, CRC and sequence fields,
	// as they are and with the checksum made good again.
	for _, off := range []int{bounds[1], bounds[1] + 1, bounds[1] + 3, bounds[1] + 4, bounds[1] + 7, bounds[1] + frameHeaderLen} {
		for _, bit := range []byte{0x01, 0x80} {
			flipped := append([]byte(nil), real...)
			flipped[off] ^= bit
			f.Add(flipped, false)
			f.Add(flipped, true)
		}
	}
	// testdata/fuzz/FuzzWALRecover holds the hand-built cases: a
	// checksummed frame whose doc count the payload cannot hold, a snippet
	// part without lines, a segment whose sequence goes back.

	older := fuzzOlderSegment()
	const olderLast = 3
	f.Fuzz(func(t *testing.T, seg []byte, restamp bool) {
		if restamp {
			seg = append([]byte(nil), seg...)
			restampFrames(seg)
		}
		dir := t.TempDir()
		newest := filepath.Join(dir, "wal-00000000000000ff.log")
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), older, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(newest, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		// What recovery should make of the newest segment, from the same
		// scan it uses; an unreadable header is a scan of nothing.
		want, _ := walkSegment(newest, olderLast, nil)

		w, err := Open(dir, Options{Sync: SyncOff})
		if err != nil {
			return
		}
		defer w.Close()
		var seqs []uint64
		var recs []Record
		if err := w.Replay(func(seq uint64, rec *Record) error {
			seqs = append(seqs, seq)
			recs = append(recs, *rec) // decodePayload's records alias nothing
			return nil
		}); err != nil {
			return
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("replayed sequence %d after %d", seqs[i], seqs[i-1])
			}
		}

		// The tail recovery could not frame is gone from the file and in
		// the counter; a segment with nothing to recover is gone whole.
		lost := float64(want.size - want.goodEnd)
		if got := w.Metrics().Read()["wal.truncated_bytes"]; got != lost {
			t.Fatalf("TruncatedBytes = %v; the scan leaves %v of %v bytes unframed", got, lost, want.size)
		}
		fi, err := os.Stat(newest)
		switch {
		case want.records == 0:
			if err == nil {
				t.Fatalf("a segment with no recoverable record was kept (%d bytes)", fi.Size())
			}
		case err != nil:
			t.Fatalf("a segment with %d recoverable records is gone: %v", want.records, err)
		case fi.Size() != want.goodEnd:
			t.Fatalf("segment is %d bytes after recovery, its last whole frame ends at %d", fi.Size(), want.goodEnd)
		default:
			again, err := walkSegment(newest, olderLast, nil)
			if err != nil || again.tailLost || again.goodEnd != again.size || again.records != want.records {
				t.Fatalf("the recovered segment does not scan clean: %+v, %v (before: %+v)", again, err, want)
			}
		}

		// Every record that came back can be logged again and comes back
		// equal (the older segment's three alone are not worth two Opens).
		if want.records == 0 {
			return
		}
		dir2 := t.TempDir()
		w2, err := Open(dir2, Options{Sync: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if _, err := w2.Append(recs[i]); err != nil {
				_ = w2.Close() // the append failure is the finding
				t.Fatalf("replayed record %+v cannot be appended: %v", recs[i], err)
			}
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		w3, err := Open(dir2, Options{Sync: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer w3.Close()
		var back []Record
		var next uint64 = 1
		if err := w3.Replay(func(seq uint64, rec *Record) error {
			if seq != next {
				t.Fatalf("re-appended record %d replays as sequence %d", next, seq)
			}
			next++
			back = append(back, *rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("re-appended records replay as %+v, want %+v", back, recs)
		}
	})
}
