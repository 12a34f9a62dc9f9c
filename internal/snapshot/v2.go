package snapshot

// The v2 artifact layout: a zero-parse snapshot whose on-disk bytes
// ARE the compiled serving tables — a sectioned, aligned container
// designed to be mapped read-only and used in place, not decoded into
// heap structures:
//
//	offset 0            header (64 bytes)
//	offset 64           section directory (count × 32-byte entries)
//	aligned             section payloads, each 64-byte aligned,
//	                    zero-padded between
//
// Header (fixed-width little-endian):
//
//	[0:4]   magic "MBS2"
//	[4:6]   format version (uint16) = 2
//	[6:8]   endianness tag (uint16) = 0xB1FE, stored little-endian.
//	        A big-endian consumer reading its native order sees 0xFEB1
//	        and must reject the artifact rather than reinterpret the
//	        dense arrays — v2 payloads are raw host-format float64/
//	        int32/uint32 and are only valid zero-copy on little-endian
//	        hosts (every deployment target of this repository).
//	[8:12]  section count (uint32)
//	[12:16] CRC-32C of the directory bytes (uint32)
//	[16:24] total file size (uint64) — cheap truncation check
//	[24:56] model name, NUL-padded (32 bytes)
//	[56:64] reserved, zero
//
// Directory entry (32 bytes):
//
//	[0:8]   section tag, NUL-padded ("v.blob", "rel", ...)
//	[8:16]  payload offset from file start (uint64, 64-byte aligned)
//	[16:24] payload length in bytes (uint64)
//	[24:28] CRC-32C of the payload (uint32)
//	[28:32] element kind (uint32): bytes, float64, int32, uint32
//
// Every section is independently CRC-32C-gated (Castagnoli — hardware
// accelerated), so integrity verification can be deferred, sampled, or
// skipped for trusted local artifacts without weakening the parse-time
// structural checks (bounds, alignment, element-size divisibility),
// which are always enforced. internal/mmap is the consuming side.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// V2Magic identifies a v2 (zero-parse) artifact.
const V2Magic = "MBS2"

// V2Version is the sectioned-layout format version.
const V2Version = 2

// v2EndianTag is written as a little-endian uint16; reading it back as
// any other value means the artifact and host disagree on byte order.
const v2EndianTag = 0xB1FE

// Section element kinds: how the payload bytes are meant to be
// reinterpreted. The parser enforces length % elemSize == 0.
const (
	V2Bytes   = 1
	V2Float64 = 2
	V2Int32   = 3
	V2Uint32  = 4
)

// v2Align is the section payload alignment. 64 bytes aligns to cache
// lines and comfortably exceeds every element size.
const v2Align = 64

const (
	v2HeaderSize = 64
	v2EntrySize  = 32
	v2TagSize    = 8
	v2NameSize   = 32
)

// castagnoli is the CRC-32C table shared by the v2 writer and reader
// (the same polynomial the feedback WAL uses; hardware-accelerated).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// V2Section describes one parsed directory entry, with its payload
// sliced out of the artifact bytes.
type V2Section struct {
	Tag  string
	Kind uint32
	CRC  uint32
	Data []byte // view into the artifact; nil only for empty sections
}

// Elems returns the element count under the section's kind.
func (s V2Section) Elems() int {
	switch s.Kind {
	case V2Float64:
		return len(s.Data) / 8
	case V2Int32, V2Uint32:
		return len(s.Data) / 4
	default:
		return len(s.Data)
	}
}

// hostLittleEndian reports the running process's byte order; v2
// zero-copy views are only valid when it matches the artifact's.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// V2Writer accumulates named sections and writes the container. The
// writer borrows the section slices (no copies) until WriteTo runs, so
// build the sections and write in one breath.
type V2Writer struct {
	name     string
	sections []v2out
	err      error
}

type v2out struct {
	tag  string
	kind uint32
	data []byte
}

// NewV2Writer starts a v2 artifact for the named model.
func NewV2Writer(modelName string) *V2Writer {
	w := &V2Writer{name: modelName}
	if len(modelName) == 0 || len(modelName) > v2NameSize {
		w.err = fmt.Errorf("snapshot: v2 model name %q must be 1..%d bytes", modelName, v2NameSize)
	}
	return w
}

func (w *V2Writer) add(tag string, kind uint32, data []byte) {
	if w.err != nil {
		return
	}
	if len(tag) == 0 || len(tag) > v2TagSize {
		w.err = fmt.Errorf("snapshot: v2 section tag %q must be 1..%d bytes", tag, v2TagSize)
		return
	}
	for _, s := range w.sections {
		if s.tag == tag {
			w.err = fmt.Errorf("snapshot: duplicate v2 section tag %q", tag)
			return
		}
	}
	w.sections = append(w.sections, v2out{tag: tag, kind: kind, data: data})
}

// Bytes adds an opaque byte section.
func (w *V2Writer) Bytes(tag string, b []byte) { w.add(tag, V2Bytes, b) }

// Floats adds a dense []float64 section. On little-endian hosts the
// slice memory is written directly; elsewhere it is re-encoded.
func (w *V2Writer) Floats(tag string, f []float64) {
	w.add(tag, V2Float64, castBytes(unsafe.Pointer(unsafe.SliceData(f)), len(f)*8, func(dst []byte) {
		for i, v := range f {
			binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
		}
	}))
}

// Int32s adds a dense []int32 section.
func (w *V2Writer) Int32s(tag string, v []int32) {
	w.add(tag, V2Int32, castBytes(unsafe.Pointer(unsafe.SliceData(v)), len(v)*4, func(dst []byte) {
		for i, x := range v {
			binary.LittleEndian.PutUint32(dst[i*4:], uint32(x))
		}
	}))
}

// Uint32s adds a dense []uint32 section.
func (w *V2Writer) Uint32s(tag string, v []uint32) {
	w.add(tag, V2Uint32, castBytes(unsafe.Pointer(unsafe.SliceData(v)), len(v)*4, func(dst []byte) {
		for i, x := range v {
			binary.LittleEndian.PutUint32(dst[i*4:], x)
		}
	}))
}

// castBytes reinterprets a slice's memory as bytes on little-endian
// hosts; on big-endian hosts it materialises a little-endian copy via
// encode. n is the byte length.
func castBytes(p unsafe.Pointer, n int, encode func(dst []byte)) []byte {
	if n == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(p), n)
	}
	dst := make([]byte, n)
	encode(dst)
	return dst
}

// WriteTo writes the container: header, directory, then each section
// payload 64-byte aligned with zero padding between. It implements
// io.WriterTo; the byte count includes everything written.
func (w *V2Writer) WriteTo(out io.Writer) (int64, error) {
	if w.err != nil {
		return 0, w.err
	}
	nSec := len(w.sections)
	dirEnd := v2HeaderSize + nSec*v2EntrySize

	// Lay out payload offsets.
	offs := make([]uint64, nSec)
	pos := uint64(align64(dirEnd))
	for i, s := range w.sections {
		offs[i] = pos
		pos = uint64(align64(int(pos) + len(s.data)))
	}
	fileSize := uint64(dirEnd)
	if nSec > 0 {
		fileSize = offs[nSec-1] + uint64(len(w.sections[nSec-1].data))
	}

	// Directory with per-section CRCs.
	dir := make([]byte, nSec*v2EntrySize)
	for i, s := range w.sections {
		e := dir[i*v2EntrySize:]
		copy(e[0:v2TagSize], s.tag)
		binary.LittleEndian.PutUint64(e[8:], offs[i])
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.data)))
		binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(s.data, castagnoli))
		binary.LittleEndian.PutUint32(e[28:], s.kind)
	}

	hdr := make([]byte, v2HeaderSize)
	copy(hdr[0:4], V2Magic)
	binary.LittleEndian.PutUint16(hdr[4:], V2Version)
	binary.LittleEndian.PutUint16(hdr[6:], v2EndianTag)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(nSec))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.Checksum(dir, castagnoli))
	binary.LittleEndian.PutUint64(hdr[16:], fileSize)
	copy(hdr[24:24+v2NameSize], w.name)

	var n int64
	write := func(p []byte) error {
		m, err := out.Write(p)
		n += int64(m)
		return err
	}
	if err := write(hdr); err != nil {
		return n, err
	}
	if err := write(dir); err != nil {
		return n, err
	}
	var pad [v2Align]byte
	cur := dirEnd
	for i, s := range w.sections {
		if gap := int(offs[i]) - cur; gap > 0 {
			if err := write(pad[:gap]); err != nil {
				return n, err
			}
			cur += gap
		}
		if err := write(s.data); err != nil {
			return n, err
		}
		cur += len(s.data)
	}
	return n, nil
}

// align64 rounds up to the next multiple of v2Align.
func align64(n int) int { return (n + v2Align - 1) &^ (v2Align - 1) }

// ErrWrongArch is wrapped by parse errors caused by an artifact whose
// byte order does not match this host: the bytes may be intact, but
// zero-copy reinterpretation would read garbage, so the loader fails
// closed (re-export the artifact on a matching host).
var ErrWrongArch = errors.New("snapshot: artifact byte order does not match this host")

// V2Artifact is a parsed v2 container: structural metadata plus
// section views into the caller's bytes (typically a read-only file
// mapping — the parser never copies payloads).
type V2Artifact struct {
	ModelName string
	Sections  []V2Section

	byTag map[string]int
	data  []byte
}

// ParseV2 validates the header and directory of a v2 artifact over the
// full artifact bytes and returns section views. Structural validation
// is exhaustive — magic, version, endianness, file size, directory
// CRC, section bounds, 64-byte alignment, element-size divisibility,
// overlapping payloads — but section payload CRCs are NOT verified
// here: that is VerifySections (O(size)), which callers schedule
// according to trust in the artifact's provenance.
func ParseV2(data []byte) (*V2Artifact, error) {
	if magic := data[:min(len(data), len(V2Magic))]; string(magic) != V2Magic {
		if string(magic) == "MBSN" {
			return nil, errors.New(`snapshot: a v1 artifact (magic "MBSN"); this build reads v2 only: convert it once with clickmodelfit -conv built at commit 7dc123b or earlier`)
		}
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	if len(data) < v2HeaderSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a v2 header", ErrCorrupt, len(data))
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != V2Version {
		return nil, fmt.Errorf("snapshot: unsupported v2 format version %d (this build reads version %d)", v, V2Version)
	}
	if tag := binary.LittleEndian.Uint16(data[6:]); tag != v2EndianTag || !hostLittleEndian {
		return nil, fmt.Errorf("%w: endianness tag %04x (want %04x on a little-endian host)", ErrWrongArch, tag, uint16(v2EndianTag))
	}
	nSec := int(binary.LittleEndian.Uint32(data[8:]))
	const maxSections = 1 << 16
	if nSec > maxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, nSec)
	}
	if size := binary.LittleEndian.Uint64(data[16:]); size != uint64(len(data)) {
		return nil, fmt.Errorf("%w: header claims %d bytes, artifact holds %d (truncated?)", ErrCorrupt, size, len(data))
	}
	name := cutNul(data[24 : 24+v2NameSize])
	if name == "" {
		return nil, fmt.Errorf("%w: empty model name", ErrCorrupt)
	}

	dirEnd := v2HeaderSize + nSec*v2EntrySize
	if dirEnd > len(data) {
		return nil, fmt.Errorf("%w: directory of %d sections overruns the artifact", ErrCorrupt, nSec)
	}
	dir := data[v2HeaderSize:dirEnd]
	if want, got := binary.LittleEndian.Uint32(data[12:]), crc32.Checksum(dir, castagnoli); want != got {
		return nil, fmt.Errorf("%w: directory checksum mismatch (artifact %08x, computed %08x)", ErrCorrupt, want, got)
	}

	a := &V2Artifact{ModelName: name, byTag: make(map[string]int, nSec), data: data}
	prevEnd := uint64(dirEnd)
	for i := 0; i < nSec; i++ {
		e := dir[i*v2EntrySize:]
		tag := cutNul(e[0:v2TagSize])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		crc := binary.LittleEndian.Uint32(e[24:])
		kind := binary.LittleEndian.Uint32(e[28:])
		if tag == "" {
			return nil, fmt.Errorf("%w: section %d has an empty tag", ErrCorrupt, i)
		}
		if _, dup := a.byTag[tag]; dup {
			return nil, fmt.Errorf("%w: duplicate section tag %q", ErrCorrupt, tag)
		}
		if off%v2Align != 0 {
			return nil, fmt.Errorf("%w: section %q offset %d is not %d-byte aligned", ErrCorrupt, tag, off, v2Align)
		}
		if off < prevEnd || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %q [%d, %d) overlaps or overruns the artifact", ErrCorrupt, tag, off, off+length)
		}
		var elem uint64
		switch kind {
		case V2Bytes:
			elem = 1
		case V2Float64:
			elem = 8
		case V2Int32, V2Uint32:
			elem = 4
		default:
			return nil, fmt.Errorf("%w: section %q has unknown element kind %d", ErrCorrupt, tag, kind)
		}
		if length%elem != 0 {
			return nil, fmt.Errorf("%w: section %q length %d is not a multiple of its %d-byte elements", ErrCorrupt, tag, length, elem)
		}
		a.byTag[tag] = len(a.Sections)
		a.Sections = append(a.Sections, V2Section{Tag: tag, Kind: kind, CRC: crc, Data: data[off : off+length : off+length]})
		prevEnd = off + length
	}
	return a, nil
}

// cutNul interprets a NUL-padded fixed field.
func cutNul(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// Section returns the named section view.
func (a *V2Artifact) Section(tag string) (V2Section, bool) {
	i, ok := a.byTag[tag]
	if !ok {
		return V2Section{}, false
	}
	return a.Sections[i], true
}

// VerifySections checks every section payload against its recorded
// CRC-32C — the O(size) integrity pass deferred by ParseV2. With
// hardware CRC this runs at several GB/s, but it still touches every
// page; O(1) loads skip it for artifacts written atomically by a
// trusted local process.
func (a *V2Artifact) VerifySections() error {
	for _, s := range a.Sections {
		if got := crc32.Checksum(s.Data, castagnoli); got != s.CRC {
			return fmt.Errorf("%w: section %q checksum mismatch (artifact %08x, computed %08x)", ErrCorrupt, s.Tag, s.CRC, got)
		}
	}
	return nil
}

// typed zero-copy views ------------------------------------------------

// FloatsView reinterprets the named section as []float64 without
// copying. The artifact bytes must outlive the returned slice.
func (a *V2Artifact) FloatsView(tag string) ([]float64, error) {
	s, err := a.viewOf(tag, V2Float64)
	if err != nil || len(s.Data) == 0 {
		return nil, err
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(s.Data))), len(s.Data)/8), nil
}

// Int32sView reinterprets the named section as []int32 without copying.
func (a *V2Artifact) Int32sView(tag string) ([]int32, error) {
	s, err := a.viewOf(tag, V2Int32)
	if err != nil || len(s.Data) == 0 {
		return nil, err
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(s.Data))), len(s.Data)/4), nil
}

// Uint32sView reinterprets the named section as []uint32 without copying.
func (a *V2Artifact) Uint32sView(tag string) ([]uint32, error) {
	s, err := a.viewOf(tag, V2Uint32)
	if err != nil || len(s.Data) == 0 {
		return nil, err
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(s.Data))), len(s.Data)/4), nil
}

// BytesView returns the named byte section.
func (a *V2Artifact) BytesView(tag string) ([]byte, error) {
	s, err := a.viewOf(tag, V2Bytes)
	if err != nil {
		return nil, err
	}
	return s.Data, nil
}

func (a *V2Artifact) viewOf(tag string, kind uint32) (V2Section, error) {
	s, ok := a.Section(tag)
	if !ok {
		return V2Section{}, fmt.Errorf("%w: missing section %q", ErrCorrupt, tag)
	}
	if s.Kind != kind {
		return V2Section{}, fmt.Errorf("%w: section %q holds element kind %d, want %d", ErrCorrupt, tag, s.Kind, kind)
	}
	return s, nil
}
