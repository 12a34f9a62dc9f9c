package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

// buildV2 assembles a representative artifact: a byte blob, float64,
// int32 and uint32 sections, including an empty one.
func buildV2(t *testing.T) ([]byte, []float64, []int32, []uint32) {
	t.Helper()
	floats := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	ints := []int32{-1, 0, 1, 1 << 30, -(1 << 30)}
	uints := []uint32{0, 7, 1 << 31}
	w := NewV2Writer("micro")
	w.Bytes("v.blob", []byte("cheapflightscheap flights"))
	w.Floats("rel", floats)
	w.Int32s("v.tabl", ints)
	w.Uint32s("v.offs", uints)
	w.Bytes("empty", nil)
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, buffer holds %d", n, buf.Len())
	}
	return buf.Bytes(), floats, ints, uints
}

func TestV2RoundTrip(t *testing.T) {
	data, floats, ints, uints := buildV2(t)
	a, err := ParseV2(data)
	if err != nil {
		t.Fatalf("ParseV2: %v", err)
	}
	if a.ModelName != "micro" {
		t.Fatalf("ModelName = %q, want micro", a.ModelName)
	}
	if err := a.VerifySections(); err != nil {
		t.Fatalf("VerifySections: %v", err)
	}

	blob, err := a.BytesView("v.blob")
	if err != nil || string(blob) != "cheapflightscheap flights" {
		t.Fatalf("BytesView = %q, %v", blob, err)
	}
	fv, err := a.FloatsView("rel")
	if err != nil {
		t.Fatalf("FloatsView: %v", err)
	}
	for i, want := range floats {
		if got := fv[i]; got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("float[%d] = %v, want %v", i, got, want)
		}
	}
	iv, err := a.Int32sView("v.tabl")
	if err != nil {
		t.Fatalf("Int32sView: %v", err)
	}
	for i, want := range ints {
		if iv[i] != want {
			t.Fatalf("int32[%d] = %d, want %d", i, iv[i], want)
		}
	}
	uv, err := a.Uint32sView("v.offs")
	if err != nil {
		t.Fatalf("Uint32sView: %v", err)
	}
	for i, want := range uints {
		if uv[i] != want {
			t.Fatalf("uint32[%d] = %d, want %d", i, uv[i], want)
		}
	}
	ev, err := a.BytesView("empty")
	if err != nil || len(ev) != 0 {
		t.Fatalf("empty BytesView = %v, %v", ev, err)
	}

	// Payloads must be views into the artifact, not copies, and aligned.
	s, _ := a.Section("rel")
	for _, sec := range a.Sections {
		if len(sec.Data) == 0 {
			continue
		}
		start := &sec.Data[0]
		found := false
		for i := range data {
			if &data[i] == start {
				if i%v2Align != 0 {
					t.Fatalf("section %q starts at offset %d, not %d-aligned", sec.Tag, i, v2Align)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("section %q payload is a copy, not a view", sec.Tag)
		}
	}
	if len(s.Data) != 8*len(floats) {
		t.Fatalf("rel holds %d bytes, want 8 per float of %d", len(s.Data), len(floats))
	}
}

func TestV2WriterRejects(t *testing.T) {
	if _, err := NewV2Writer("").WriteTo(&bytes.Buffer{}); err == nil {
		t.Error("empty model name accepted")
	}
	if _, err := NewV2Writer("a-name-well-over-thirty-two-bytes-long").WriteTo(&bytes.Buffer{}); err == nil {
		t.Error("overlong model name accepted")
	}
	w := NewV2Writer("m")
	w.Bytes("toolongtag", nil)
	if _, err := w.WriteTo(&bytes.Buffer{}); err == nil {
		t.Error("overlong tag accepted")
	}
	w = NewV2Writer("m")
	w.Bytes("dup", nil)
	w.Floats("dup", nil)
	if _, err := w.WriteTo(&bytes.Buffer{}); err == nil {
		t.Error("duplicate tag accepted")
	}
}

// TestV2ParseRejects corrupts specific structural fields and checks the
// parser fails closed on each.
func TestV2ParseRejects(t *testing.T) {
	data, _, _, _ := buildV2(t)

	mut := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), data...)
		b = f(b)
		if _, err := ParseV2(b); err == nil {
			t.Errorf("%s: ParseV2 accepted a corrupt artifact", name)
		}
	}
	mut("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mut("future version", func(b []byte) []byte { binary.LittleEndian.PutUint16(b[4:], 99); return b })
	mut("truncated header", func(b []byte) []byte { return b[:32] })
	mut("truncated payload", func(b []byte) []byte { return b[:len(b)-8] })
	mut("oversize claim", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[16:], uint64(len(b)+64))
		return b
	})
	mut("empty name", func(b []byte) []byte {
		for i := 24; i < 24+v2NameSize; i++ {
			b[i] = 0
		}
		return b
	})
	mut("directory bitflip", func(b []byte) []byte { b[v2HeaderSize+3] ^= 1; return b })
	mut("section count spike", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], 1<<20)
		return b
	})

	// Directory-level corruptions need the directory CRC re-signed to
	// reach the per-section checks.
	resign := func(b []byte) []byte {
		nSec := int(binary.LittleEndian.Uint32(b[8:]))
		dir := b[v2HeaderSize : v2HeaderSize+nSec*v2EntrySize]
		binary.LittleEndian.PutUint32(b[12:], crcOf(dir))
		return b
	}
	entry := func(b []byte, i int) []byte { return b[v2HeaderSize+i*v2EntrySize:] }
	mut("misaligned offset", func(b []byte) []byte {
		e := entry(b, 1)
		binary.LittleEndian.PutUint64(e[8:], binary.LittleEndian.Uint64(e[8:])+8)
		return resign(b)
	})
	mut("overrunning length", func(b []byte) []byte {
		e := entry(b, 1)
		binary.LittleEndian.PutUint64(e[16:], uint64(len(b)))
		return resign(b)
	})
	mut("overlapping sections", func(b []byte) []byte {
		e0 := entry(b, 0)
		e1 := entry(b, 1)
		binary.LittleEndian.PutUint64(e1[8:], binary.LittleEndian.Uint64(e0[8:]))
		return resign(b)
	})
	mut("unknown kind", func(b []byte) []byte {
		e := entry(b, 0)
		binary.LittleEndian.PutUint32(e[28:], 77)
		return resign(b)
	})
	mut("odd float length", func(b []byte) []byte {
		e := entry(b, 1) // "rel", float64
		binary.LittleEndian.PutUint64(e[16:], binary.LittleEndian.Uint64(e[16:])-1)
		return resign(b)
	})
	mut("empty tag", func(b []byte) []byte {
		e := entry(b, 0)
		for i := 0; i < v2TagSize; i++ {
			e[i] = 0
		}
		return resign(b)
	})
	mut("duplicate tags", func(b []byte) []byte {
		copy(entry(b, 1)[0:v2TagSize], entry(b, 0)[0:v2TagSize])
		return resign(b)
	})
}

func crcOf(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

func TestV2WrongEndianTagRejected(t *testing.T) {
	data, _, _, _ := buildV2(t)
	b := append([]byte(nil), data...)
	b[6], b[7] = b[7], b[6] // byte-swapped tag, as a foreign-order writer would leave it
	_, err := ParseV2(b)
	if !errors.Is(err, ErrWrongArch) {
		t.Fatalf("ParseV2 on swapped endian tag: err = %v, want ErrWrongArch", err)
	}
}

// TestV2VerifySectionsCatchesPayloadFlips flips each payload byte in
// turn; ParseV2 stays green (structure intact) but VerifySections must
// flag every one.
func TestV2VerifySectionsCatchesPayloadFlips(t *testing.T) {
	data, _, _, _ := buildV2(t)
	a, err := ParseV2(data)
	if err != nil {
		t.Fatal(err)
	}
	payloadStart := len(data)
	for _, s := range a.Sections {
		if len(s.Data) == 0 {
			continue
		}
		for i := range data {
			if &data[i] == &s.Data[0] {
				if i < payloadStart {
					payloadStart = i
				}
			}
		}
	}
	for i := payloadStart; i < len(data); i++ {
		b := append([]byte(nil), data...)
		b[i] ^= 0x40
		aa, err := ParseV2(b)
		if err != nil {
			t.Fatalf("offset %d: ParseV2 failed on payload-only flip: %v", i, err)
		}
		inSection := false
		for _, s := range aa.Sections {
			for j := range data {
				if len(s.Data) > 0 && &b[j] == &s.Data[0] && i >= j && i < j+len(s.Data) {
					inSection = true
				}
			}
		}
		if err := aa.VerifySections(); inSection && err == nil {
			t.Fatalf("offset %d: VerifySections missed a payload flip", i)
		}
	}
}

func TestV2EveryByteCorruptionDetectedOrHarmless(t *testing.T) {
	data, _, _, _ := buildV2(t)
	for i := range data {
		b := append([]byte(nil), data...)
		b[i] ^= 0xFF
		a, err := ParseV2(b)
		if err != nil {
			continue // fail closed at parse: fine
		}
		if err := a.VerifySections(); err != nil {
			continue // fail closed at verify: fine
		}
		// Neither caught it: the flip must be in inter-section padding,
		// which no view exposes — prove payload equality vs original.
		orig, _ := ParseV2(data)
		for _, s := range orig.Sections {
			got, ok := a.Section(s.Tag)
			if !ok || !bytes.Equal(got.Data, s.Data) {
				t.Fatalf("offset %d: undetected corruption changed section %q", i, s.Tag)
			}
		}
	}
}

func TestV2RawCodecRoundTrip(t *testing.T) {
	// The meta section's codec: the Append* forms, read by a Cursor.
	meta := AppendUint(nil, 42)
	meta = AppendFloat(meta, math.Pi)
	meta = AppendFloats(meta, []float64{0.9, 0.6})
	meta = AppendString(meta, "geometric")
	meta = AppendBool(meta, true)
	d := NewCursor(meta)
	if v := d.Uint(); v != 42 {
		t.Fatalf("Uint = %d", v)
	}
	if v := d.Float(); v != math.Pi {
		t.Fatalf("Float = %v", v)
	}
	if v := d.Floats(); len(v) != 2 || v[0] != 0.9 || v[1] != 0.6 {
		t.Fatalf("Floats = %v", v)
	}
	if v := d.String(); v != "geometric" {
		t.Fatalf("String = %q", v)
	}
	if v := d.Bool(); !v {
		t.Fatalf("Bool = false")
	}
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("Err: %v, %d bytes left", err, d.Remaining())
	}
	// A float cut short is corrupt, not a zero.
	if d := NewCursor(meta[:len(meta)-20]); d.Uint() != 42 || d.Float() != math.Pi || d.Floats() != nil || d.Err() == nil {
		t.Fatal("a truncated float section decoded cleanly")
	}
}
