// Package binproto is the length-prefixed binary scoring protocol: the
// allocation-free alternative to the JSON surface for high-throughput
// scoring clients (embedded rankers; the benchmark/ generator). It
// shares a listener with the HTTP server — Mux sniffs the first bytes
// of each accepted connection and routes "MBSP" traffic here, leaving
// everything else to net/http.
//
// # Framing
//
// Every frame is a fixed 12-byte header followed by a length-prefixed
// payload, all integers little-endian:
//
//	offset  size  field
//	0       4     magic "MBSP"
//	4       1     protocol version (1)
//	5       1     frame type (1 score, 2 result, 3 error,
//	              4 optimize, 5 optimize result)
//	6       2     request tag (echoed in the response frame)
//	8       4     payload length (≤ MaxPayload)
//
// The request tag is the frame-level request ID: clients stamp each
// outgoing frame with an arbitrary u16 and the server copies it into
// the answering result (or error) frame header, so a client can
// correlate responses without decoding the payload. Zero is a valid
// tag — these bytes were reserved-as-zero in earlier builds, so an
// old client that leaves them zero keeps working unchanged.
//
// A score frame carries a request batch; the server answers each with
// exactly one result frame carrying the response batch in request
// order, then reads the next frame — a strict request/response cycle
// per connection (pipeline by opening more connections). An optimize
// frame carries one query × N candidate snippets and is answered with
// exactly one optimize-result frame. A malformed frame is answered
// with an error frame and the connection closes: framing errors are
// not recoverable mid-stream.
//
// # Batch encoding
//
// Strings are u16 length + bytes ("str16"). A score payload is:
//
//	u32 count
//	per request:
//	  str16 id, str16 model, u8 maxN, u8 evidence kind
//	  kind 1 (snippet): u16 nlines, nlines × str16
//	  kind 2 (session): str16 query, u16 ndocs, ndocs × str16,
//	                    ⌈ndocs/8⌉ click bits (LSB-first)
//
// A result payload is:
//
//	u32 count
//	per response:
//	  str16 id, str16 model, u32 version, f64 ctr, f64 score,
//	  u16 npositions, npositions × f64, str16 error
//
// An optimize payload is one candidate-set scoring call (the binary
// analogue of POST /v1/optimize; candidates are always explicit —
// server-side generation is a JSON-surface affordance):
//
//	str16 id, str16 model, u8 maxN, u16 topK (0 = all)
//	u16 nlines, nlines × str16              (base snippet)
//	u32 ncands
//	per candidate: u16 nlines, nlines × str16
//
// An optimize-result payload is:
//
//	str16 id, str16 model, u32 version
//	f64 base ctr, f64 base score
//	u32 best (0 = the base wins, k = candidate k−1)
//	u32 nranked
//	per ranked (best first): u32 candidate index, f64 ctr, f64 score
//	str16 error
//
// An error payload is a single str16 message.
//
// The server's per-connection read, decode, score and encode paths
// reuse connection-owned buffers and arenas; after warm-up a score
// cycle performs zero heap allocations (request strings are unsafe
// views into the frame buffer, valid only until the next frame — the
// engine does not retain them).
//
// # The evidence arena
//
// Batch (batch.go) is the request-batch builder behind that cycle, and
// behind the JSON score routes of package server as well: one arena,
// two wire syntaxes. This package decodes MBSP payloads into it; the
// HTTP surface scans JSON bodies into a pooled one through the same
// exported builder methods, which is why the byte-view helper and the
// arena live together here, in the one serving package allowed to use
// unsafe.
package binproto

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/engine"
)

// Protocol constants. MaxPayload matches the HTTP surface's body
// bound and MaxBatch its batch bound, so a client hitting one limit
// hits the same limit on either protocol.
const (
	Version    = 1
	HeaderSize = 12
	MaxPayload = 32 << 20
	MaxBatch   = 10000
	maxStr     = 1<<16 - 1
)

// Magic is the 4-byte frame prefix; Mux sniffs it to split binary
// traffic from HTTP on one listener.
var Magic = [4]byte{'M', 'B', 'S', 'P'}

// Frame types.
const (
	FrameScore          = 1 // client → server: request batch
	FrameResult         = 2 // server → client: response batch
	FrameError          = 3 // server → client: connection-fatal message
	FrameOptimize       = 4 // client → server: one query × N candidates
	FrameOptimizeResult = 5 // server → client: ranked candidate set
)

// Evidence kinds inside a score frame.
const (
	evLines   = 1
	evSession = 2
)

// IsMagic reports whether b begins a binary-protocol frame.
func IsMagic(b []byte) bool {
	return len(b) >= 4 && b[0] == Magic[0] && b[1] == Magic[1] && b[2] == Magic[2] && b[3] == Magic[3]
}

// putHeaderTag writes a frame header carrying a request tag. Clients
// pick the tag; the server echoes the request frame's tag in the
// answering result or error frame.
func putHeaderTag(b []byte, ftype byte, tag uint16, payloadLen int) {
	copy(b, Magic[:])
	b[4] = Version
	b[5] = ftype
	binary.LittleEndian.PutUint16(b[6:8], tag)
	binary.LittleEndian.PutUint32(b[8:12], uint32(payloadLen))
}

// parseHeader validates a frame header and returns its type, request
// tag and payload length.
func parseHeader(b []byte) (ftype byte, tag uint16, n int, err error) {
	if !IsMagic(b) {
		return 0, 0, 0, fmt.Errorf("binproto: bad frame magic %q", b[:4])
	}
	if b[4] != Version {
		return 0, 0, 0, fmt.Errorf("binproto: protocol version %d, this build speaks %d", b[4], Version)
	}
	tag = binary.LittleEndian.Uint16(b[6:8])
	n = int(binary.LittleEndian.Uint32(b[8:12]))
	if n > MaxPayload {
		return 0, 0, 0, fmt.Errorf("binproto: %d-byte payload exceeds the %d limit", n, MaxPayload)
	}
	return b[5], tag, n, nil
}

// byteString is a zero-copy view of b. The caller owns the aliasing
// contract: the string is valid only while b's backing array is.
func byteString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// --- append-side primitives (shared by server responses and client
// requests; all grow their destination and return it) ---

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendF64(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func appendStr16(b []byte, s string) ([]byte, error) {
	if len(s) > maxStr {
		return b, fmt.Errorf("binproto: %d-byte string exceeds the %d limit", len(s), maxStr)
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...), nil
}

// AppendRequests encodes a score-frame payload (count + each request)
// onto out. It is the client-side encoder; the server decodes the
// exact inverse.
func AppendRequests(out []byte, reqs []engine.Request) ([]byte, error) {
	if len(reqs) > MaxBatch {
		return out, fmt.Errorf("binproto: batch of %d requests exceeds the %d limit; split it", len(reqs), MaxBatch)
	}
	out = appendU32(out, uint32(len(reqs)))
	var err error
	for i := range reqs {
		req := &reqs[i]
		if out, err = appendStr16(out, req.ID); err != nil {
			return out, err
		}
		if out, err = appendStr16(out, req.Model); err != nil {
			return out, err
		}
		maxN := req.MaxN
		if maxN < 0 || maxN > 255 {
			return out, fmt.Errorf("binproto: request %d: max_n %d out of range", i, maxN)
		}
		out = append(out, byte(maxN))
		switch {
		case req.Session != nil:
			s := req.Session
			out = append(out, evSession)
			if out, err = appendStr16(out, s.Query); err != nil {
				return out, err
			}
			if len(s.Docs) > maxStr {
				return out, fmt.Errorf("binproto: request %d: %d docs exceed the %d limit", i, len(s.Docs), maxStr)
			}
			out = appendU16(out, uint16(len(s.Docs)))
			for _, d := range s.Docs {
				if out, err = appendStr16(out, d); err != nil {
					return out, err
				}
			}
			bits := make([]byte, (len(s.Docs)+7)/8)
			for j, c := range s.Clicks {
				if j >= len(s.Docs) {
					break
				}
				if c {
					bits[j/8] |= 1 << (j % 8)
				}
			}
			out = append(out, bits...)
		default:
			out = append(out, evLines)
			if len(req.Lines) > maxStr {
				return out, fmt.Errorf("binproto: request %d: %d lines exceed the %d limit", i, len(req.Lines), maxStr)
			}
			out = appendU16(out, uint16(len(req.Lines)))
			for _, l := range req.Lines {
				if out, err = appendStr16(out, l); err != nil {
					return out, err
				}
			}
		}
	}
	return out, nil
}

// AppendResponses encodes a result-frame payload onto out — the
// server-side encoder.
func AppendResponses(out []byte, resps []engine.Response) ([]byte, error) {
	out = appendU32(out, uint32(len(resps)))
	var err error
	for i := range resps {
		r := &resps[i]
		if out, err = appendStr16(out, r.ID); err != nil {
			return out, err
		}
		if out, err = appendStr16(out, r.Model); err != nil {
			return out, err
		}
		out = appendU32(out, uint32(r.ModelVersion))
		out = appendF64(out, r.CTR)
		out = appendF64(out, r.Score)
		if len(r.Positions) > maxStr {
			return out, fmt.Errorf("binproto: response %d: %d positions exceed the %d limit", i, len(r.Positions), maxStr)
		}
		out = appendU16(out, uint16(len(r.Positions)))
		for _, p := range r.Positions {
			out = appendF64(out, p)
		}
		if out, err = appendStr16(out, r.Error); err != nil {
			return out, err
		}
	}
	return out, nil
}

// OptimizeRequest is the client-side shape of one optimize frame: the
// base snippet plus explicit candidate variants, scored in one
// amortised candidate-set pass on the server.
type OptimizeRequest struct {
	ID    string
	Model string
	// MaxN is the n-gram ceiling (0 takes the server default).
	MaxN int
	// TopK bounds the ranked candidates in the result (0 keeps all).
	TopK int
	// Lines is the base snippet the candidates compete against.
	Lines []string
	// Candidates are the variant snippets to rank.
	Candidates [][]string
}

// appendSnippet encodes u16 nlines + each line as str16.
func appendSnippet(out []byte, lines []string) ([]byte, error) {
	if len(lines) > maxStr {
		return out, fmt.Errorf("binproto: %d lines exceed the %d limit", len(lines), maxStr)
	}
	out = appendU16(out, uint16(len(lines)))
	var err error
	for _, l := range lines {
		if out, err = appendStr16(out, l); err != nil {
			return out, err
		}
	}
	return out, nil
}

// AppendOptimize encodes an optimize-frame payload onto out — the
// client-side encoder; the server decodes the exact inverse.
func AppendOptimize(out []byte, req *OptimizeRequest) ([]byte, error) {
	if len(req.Candidates) > MaxBatch {
		return out, fmt.Errorf("binproto: candidate set of %d exceeds the %d limit; split it", len(req.Candidates), MaxBatch)
	}
	var err error
	if out, err = appendStr16(out, req.ID); err != nil {
		return out, err
	}
	if out, err = appendStr16(out, req.Model); err != nil {
		return out, err
	}
	if req.MaxN < 0 || req.MaxN > 255 {
		return out, fmt.Errorf("binproto: max_n %d out of range", req.MaxN)
	}
	out = append(out, byte(req.MaxN))
	topK := req.TopK
	if topK < 0 {
		topK = 0
	}
	if topK > maxStr {
		return out, fmt.Errorf("binproto: top_k %d out of range", req.TopK)
	}
	out = appendU16(out, uint16(topK))
	if out, err = appendSnippet(out, req.Lines); err != nil {
		return out, err
	}
	out = appendU32(out, uint32(len(req.Candidates)))
	for _, cand := range req.Candidates {
		if out, err = appendSnippet(out, cand); err != nil {
			return out, err
		}
	}
	return out, nil
}

// reader walks a payload with saturating error state: after the first
// underflow every read returns zero and err is set, so decode loops
// need one error check at the end, not one per field.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("binproto: truncated payload at offset %d", r.off)
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) f64() float64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// raw returns the bytes of one str16, still inside the payload.
func (r *reader) raw() []byte {
	return r.bytes(int(r.u16()))
}

// str returns a str16 as a zero-copy view into the payload.
func (r *reader) str() string {
	return byteString(r.raw())
}

// done verifies the payload was consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("binproto: %d trailing bytes after payload", len(r.b)-r.off)
	}
	return nil
}
