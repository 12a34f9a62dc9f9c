package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/clickmodel"
	"repro/internal/snapshot"
)

// Record is one durable unit of feedback: macro evidence (a SERP
// session), micro evidence (one snippet's aggregated counts), or both
// — the WAL-side mirror of internal/stream's Event, flattened so the
// ingest path can build one on the stack without converting structs.
type Record struct {
	// Session is the macro evidence; nil when the record carries only
	// snippet feedback.
	Session *clickmodel.Session
	// SnippetLines / Impressions / Clicks are the micro evidence; an
	// empty SnippetLines means no snippet part.
	SnippetLines []string
	Impressions  int
	Clicks       int
}

// empty reports whether the record carries no evidence at all.
func (r *Record) empty() bool {
	return r.Session == nil && len(r.SnippetLines) == 0
}

// Record payloads are framed as
//
//	u32 length | u32 CRC-32C of payload | payload
//
// (both little-endian, Castagnoli polynomial — hardware-accelerated on
// every serving CPU this repo targets) with the payload itself
//
//	uvarint seq | byte flags | [session part] | [snippet part]
//
// using internal/snapshot's append primitives: the session part is
// query, doc count, docs, one click byte per doc; the snippet part is
// line count, lines, impressions, clicks. The fixed-width frame header
// lets recovery walk a segment byte-exactly and decide "torn tail"
// versus "corrupt record" without resynchronisation heuristics.
const (
	frameHeaderLen = 8
	flagSession    = byte(1 << 0)
	flagSnippet    = byte(1 << 1)

	// maxRecordLen bounds one frame's payload; feedback events are a
	// few hundred bytes, so a larger claimed length marks a corrupt
	// length field before recovery trusts it.
	maxRecordLen = 1 << 20
)

// castagnoli is the CRC-32C table shared by every frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one framed record (header + payload) to dst.
//
//mb:noalloc
func appendFrame(dst []byte, seq uint64, r *Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header backfilled below
	dst = snapshot.AppendUint(dst, seq)
	var flags byte
	if r.Session != nil {
		flags |= flagSession
	}
	if len(r.SnippetLines) > 0 {
		flags |= flagSnippet
	}
	dst = append(dst, flags)
	if r.Session != nil {
		dst = snapshot.AppendString(dst, r.Session.Query)
		dst = snapshot.AppendUint(dst, uint64(len(r.Session.Docs)))
		for _, doc := range r.Session.Docs {
			dst = snapshot.AppendString(dst, doc)
		}
		for _, c := range r.Session.Clicks {
			dst = snapshot.AppendBool(dst, c)
		}
	}
	if len(r.SnippetLines) > 0 {
		dst = snapshot.AppendUint(dst, uint64(len(r.SnippetLines)))
		for _, line := range r.SnippetLines {
			dst = snapshot.AppendString(dst, line)
		}
		dst = snapshot.AppendUint(dst, uint64(r.Impressions))
		dst = snapshot.AppendUint(dst, uint64(r.Clicks))
	}
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// decodePayload decodes one frame payload (already CRC-verified) back
// into a record. The returned record owns fresh allocations; nothing
// aliases the input buffer.
func decodePayload(payload []byte) (seq uint64, rec Record, err error) {
	c := snapshot.NewCursor(payload)
	seq = c.Uint()
	flags := c.Byte()
	if flags&flagSession != 0 {
		s := &clickmodel.Session{Query: c.String()}
		n := c.Int()
		if n > c.Remaining()/2 {
			// A doc is at least a length byte and a click byte: a count the
			// payload cannot hold is refused before it sizes an allocation.
			return 0, Record{}, fmt.Errorf("wal: %d docs claimed in %d payload bytes", n, c.Remaining())
		}
		if n > 0 && c.Err() == nil {
			s.Docs = make([]string, n)
			s.Clicks = make([]bool, n)
			for i := range s.Docs {
				s.Docs[i] = c.String()
			}
			for i := range s.Clicks {
				s.Clicks[i] = c.Bool()
			}
		}
		rec.Session = s
	}
	if flags&flagSnippet != 0 {
		n := c.Int()
		if n == 0 || n > c.Remaining() {
			// appendFrame sets the flag only for a snippet with lines, and a
			// line is at least its length byte.
			return 0, Record{}, fmt.Errorf("wal: %d snippet lines claimed in %d payload bytes", n, c.Remaining())
		}
		rec.SnippetLines = make([]string, n)
		for i := range rec.SnippetLines {
			rec.SnippetLines[i] = c.String()
		}
		rec.Impressions = int(c.Uint())
		rec.Clicks = int(c.Uint())
	}
	if err := c.Err(); err != nil {
		return 0, Record{}, err
	}
	if c.Remaining() != 0 {
		return 0, Record{}, fmt.Errorf("wal: %d trailing payload bytes", c.Remaining())
	}
	if flags&(flagSession|flagSnippet) == 0 {
		return 0, Record{}, fmt.Errorf("wal: record %d carries no evidence", seq)
	}
	return seq, rec, nil
}

// Segment files open with a fixed header
//
//	"MBWL" | byte format version | uvarint first seq | uvarint created-unix
//
// so a directory listing plus one small read identifies every segment
// and its place in the sequence without trusting file names.
const (
	segMagic   = "MBWL"
	segVersion = 1
)

// appendSegmentHeader appends a segment header to dst.
func appendSegmentHeader(dst []byte, firstSeq uint64, createdUnix int64) []byte {
	dst = append(dst, segMagic...)
	dst = append(dst, segVersion)
	dst = snapshot.AppendUint(dst, firstSeq)
	dst = snapshot.AppendUint(dst, uint64(createdUnix))
	return dst
}

// parseSegmentHeader reads a segment header from the front of b,
// returning the header length in bytes.
func parseSegmentHeader(b []byte) (firstSeq uint64, createdUnix int64, n int, err error) {
	if len(b) < len(segMagic)+1 || string(b[:len(segMagic)]) != segMagic {
		return 0, 0, 0, fmt.Errorf("wal: bad segment magic")
	}
	if v := b[len(segMagic)]; v != segVersion {
		return 0, 0, 0, fmt.Errorf("wal: unsupported segment version %d (this build reads %d)", v, segVersion)
	}
	c := snapshot.NewCursor(b[len(segMagic)+1:])
	firstSeq = c.Uint()
	createdUnix = int64(c.Uint())
	if err := c.Err(); err != nil {
		return 0, 0, 0, fmt.Errorf("wal: truncated segment header: %w", err)
	}
	return firstSeq, createdUnix, len(segMagic) + 1 + len(b[len(segMagic)+1:]) - c.Remaining(), nil
}
