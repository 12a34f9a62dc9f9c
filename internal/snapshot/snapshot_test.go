package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// v1Artifact frames a payload as a v1 artifact by hand — magic,
// version, name, payload, CRC-32 — the layout OpenV1 reads and nothing
// in the repository writes any more.
func v1Artifact(name string, payload []byte) []byte {
	b := AppendUint([]byte(magic), Version)
	b = AppendString(b, name)
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// encodeSample is one v1 artifact exercising every wire form.
func encodeSample(t *testing.T) []byte {
	t.Helper()
	var p []byte
	p = AppendUint(p, 42)
	p = AppendUint(p, 7)
	p = AppendFloat(p, math.Pi)
	p = AppendFloats(p, []float64{0.25, 0.5, math.Inf(1), -0})
	p = AppendString(p, "query string")
	p = AppendBool(p, true)
	p = AppendBool(p, false)
	return v1Artifact("pbm", p)
}

// readSample reads encodeSample's payload back, leaving the cursor's
// verdict to the caller.
func readSample(c *Cursor) (uint64, int, float64, []float64, string, bool, bool) {
	return c.Uint(), c.Int(), c.Float(), c.Floats(), c.String(), c.Bool(), c.Bool()
}

func TestRoundTrip(t *testing.T) {
	name, c, err := OpenV1(encodeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if name != "pbm" {
		t.Errorf("model name = %q", name)
	}
	u, n, f, fs, s, b1, b2 := readSample(c)
	if u != 42 || n != 7 || f != math.Pi || s != "query string" || !b1 || b2 {
		t.Errorf("read back %d %d %v %q %v %v", u, n, f, s, b1, b2)
	}
	want := []float64{0.25, 0.5, math.Inf(1), 0}
	if len(fs) != len(want) {
		t.Fatalf("Floats = %v", fs)
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Errorf("Floats[%d] = %v, want %v", i, fs[i], want[i])
		}
	}
	if c.Err() != nil || c.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes left over", c.Err(), c.Remaining())
	}
}

func TestBadMagic(t *testing.T) {
	raw := encodeSample(t)
	raw[0] ^= 0xFF
	if _, _, err := OpenV1(raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

func TestWrongVersion(t *testing.T) {
	// A header with an unsupported version and nothing after it.
	raw := AppendUint([]byte(magic), 99)
	_, _, err := OpenV1(raw)
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future version accepted: %v", err)
	}
}

// TestTruncated cuts the artifact at every length: no prefix may open
// and read back cleanly.
func TestTruncated(t *testing.T) {
	raw := encodeSample(t)
	for cut := 0; cut < len(raw); cut++ {
		_, c, err := OpenV1(raw[:cut])
		if err != nil {
			continue
		}
		readSample(c)
		if c.Err() == nil && c.Remaining() == 0 {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(raw))
		}
	}
}

// TestCorrupt flips every byte in turn: the header check or the
// checksum catches it.
func TestCorrupt(t *testing.T) {
	raw := encodeSample(t)
	for i := range raw {
		bad := bytes.Clone(raw)
		bad[i] ^= 0x5A
		if _, _, err := OpenV1(bad); err == nil {
			t.Fatalf("flipped byte %d went undetected", i)
		}
	}
}

func TestImplausibleLength(t *testing.T) {
	_, c, err := OpenV1(v1Artifact("x", AppendUint(nil, 1<<40))) // far past maxLen, read back as a length
	if err != nil {
		t.Fatal(err)
	}
	if c.Int(); c.Err() == nil {
		t.Fatal("implausible length accepted")
	}
	// A count below maxLen that the payload cannot hold fails before
	// anything is allocated for it.
	_, c, err = OpenV1(v1Artifact("x", AppendUint(nil, 1<<27)))
	if err != nil {
		t.Fatal(err)
	}
	if fs := c.Floats(); fs != nil || !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("Floats of an overrunning count = %d values, err %v", len(fs), c.Err())
	}
}
