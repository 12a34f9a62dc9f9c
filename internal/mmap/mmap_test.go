package mmap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/snapshot"
)

func artifactBytes(t *testing.T) []byte {
	t.Helper()
	w := snapshot.NewV2Writer("hostile")
	w.Bytes("v.blob", []byte("terms all the way down"))
	w.Floats("rel", []float64{0.25, 0.5, 0.75})
	w.Int32s("v.tabl", []int32{-1, 0, 1, 2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1})
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeArtifact(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.v2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenRoundTrip(t *testing.T) {
	data := artifactBytes(t)
	a, err := Open(writeArtifact(t, data))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer a.Release()
	if a.ModelName != "hostile" {
		t.Fatalf("ModelName = %q", a.ModelName)
	}
	if a.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", a.Size(), len(data))
	}
	if err := a.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	blob, err := a.BytesView("v.blob")
	if err != nil || string(blob) != "terms all the way down" {
		t.Fatalf("BytesView = %q, %v", blob, err)
	}
	fv, err := a.FloatsView("rel")
	if err != nil || len(fv) != 3 || fv[1] != 0.5 {
		t.Fatalf("FloatsView = %v, %v", fv, err)
	}
}

// TestEveryByteCorruption flips every byte of a mapped artifact file in
// turn. Each flip must either fail Open (structural damage), fail
// Verify (payload damage), or — only for inter-section padding — leave
// every section byte-identical to the original.
func TestEveryByteCorruption(t *testing.T) {
	data := artifactBytes(t)
	orig, err := snapshot.ParseV2(data)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.v2")
	for i := range data {
		b := append([]byte(nil), data...)
		b[i] ^= 0xA5
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := Open(path)
		if err != nil {
			continue // fail closed at parse
		}
		if err := a.Verify(); err != nil {
			a.Release()
			continue // fail closed at CRC
		}
		for _, s := range orig.Sections {
			got, ok := a.Section(s.Tag)
			if !ok || !bytes.Equal(got.Data, s.Data) {
				t.Fatalf("offset %d: undetected corruption reached section %q", i, s.Tag)
			}
		}
		a.Release()
	}
}

func TestTruncatedSections(t *testing.T) {
	data := artifactBytes(t)
	for _, n := range []int{0, 1, 32, 63, 64, 100, len(data) / 2, len(data) - 1} {
		if n >= len(data) {
			continue
		}
		if _, err := Open(writeArtifact(t, data[:n])); err == nil {
			t.Errorf("Open accepted an artifact truncated to %d bytes", n)
		}
	}
}

func TestMisalignedOffsetRejected(t *testing.T) {
	data := append([]byte(nil), artifactBytes(t)...)
	// Shift section 0's offset by 4 and re-sign the directory so only
	// the alignment check can object.
	e := data[64:]
	off := uint64(e[8]) | uint64(e[9])<<8
	off += 4
	e[8], e[9] = byte(off), byte(off>>8)
	resignDir(data)
	if _, err := Open(writeArtifact(t, data)); err == nil {
		t.Fatal("Open accepted a misaligned section offset")
	}
}

// resignDir recomputes the directory CRC after test mutations.
func resignDir(b []byte) {
	nSec := int(uint32(b[8]) | uint32(b[9])<<8 | uint32(b[10])<<16 | uint32(b[11])<<24)
	dir := b[64 : 64+nSec*32]
	crc := crc32.Checksum(dir, crc32.MakeTable(crc32.Castagnoli))
	b[12], b[13], b[14], b[15] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
}

func TestWrongArchRejected(t *testing.T) {
	data := append([]byte(nil), artifactBytes(t)...)
	data[6], data[7] = data[7], data[6]
	_, err := Open(writeArtifact(t, data))
	if !errors.Is(err, snapshot.ErrWrongArch) {
		t.Fatalf("err = %v, want ErrWrongArch", err)
	}
}

// TestV1ArtifactRejectedBySniff: a v1 artifact (magic "MBSN", which
// nothing reads any more) is refused by its magic on every way in — the
// parser, a mapped file, bytes from a stream — with an error that names
// v1 and the conversion, rather than as an unknown magic.
func TestV1ArtifactRejectedBySniff(t *testing.T) {
	// The v1 layout: magic, format version 1, model name, payload,
	// CRC-32 (IEEE) of everything before it.
	v1 := snapshot.AppendUint([]byte("MBSN"), 1)
	v1 = snapshot.AppendString(v1, "pbm")
	v1 = snapshot.AppendFloats(v1, []float64{0.9, 0.7, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05})
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
	refused := func(how string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "v1 artifact") || !strings.Contains(err.Error(), "clickmodelfit -conv") {
			t.Errorf("%s of a v1 artifact: err = %v, want one naming v1 and clickmodelfit -conv", how, err)
		}
	}
	_, err := snapshot.ParseV2(v1)
	refused("ParseV2", err)
	_, err = Open(writeArtifact(t, v1))
	refused("Open", err)
	_, err = FromBytes(v1)
	refused("FromBytes", err)
}

func TestRetainRelease(t *testing.T) {
	a, err := FromBytes(artifactBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Retain() {
		t.Fatal("Retain failed on a live artifact")
	}
	if got := a.refs.Load(); got != 2 {
		t.Fatalf("Refs = %d, want 2", got)
	}
	a.Release()
	a.Release() // owner's reference; drains to zero
	if a.Retain() {
		t.Fatal("Retain succeeded after drain")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	a.Release()
}

func TestUnmapOnlyAfterLastReader(t *testing.T) {
	a, err := Open(writeArtifact(t, artifactBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := a.BytesView("v.blob")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Retain() {
		t.Fatal("Retain failed")
	}
	a.Release() // owner drops; reader still pinned
	// The mapping must still be readable — a premature munmap would
	// fault this access.
	if string(blob) != "terms all the way down" {
		t.Fatal("mapped bytes changed under a pinned reader")
	}
	a.Release()
	if a.Retain() {
		t.Fatal("Retain succeeded after unmap")
	}
}

// TestRetainReleaseRace hammers the CAS loop from many goroutines while
// the owner drops its reference mid-flight; run under -race.
func TestRetainReleaseRace(t *testing.T) {
	a, err := Open(writeArtifact(t, artifactBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 2000; i++ {
				if a.Retain() {
					if _, err := a.BytesView("v.blob"); err != nil {
						t.Error(err)
					}
					a.Release()
				} else {
					return // drained; mapping must not be touched
				}
			}
		}()
	}
	close(start)
	a.Release() // owner drops concurrently
	wg.Wait()
	if a.Retain() {
		t.Fatal("artifact alive after all references dropped")
	}
}
