package snapshot

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// sample is one payload exercising every wire form.
func sample() []byte {
	var p []byte
	p = AppendUint(p, 42)
	p = AppendUint(p, 7)
	p = AppendFloat(p, math.Pi)
	p = AppendFloats(p, []float64{0.25, 0.5, math.Inf(1), -0})
	p = AppendString(p, "query string")
	p = AppendBool(p, true)
	p = AppendBool(p, false)
	return p
}

// readSample reads sample's payload back, leaving the cursor's verdict
// to the caller.
func readSample(c *Cursor) (uint64, int, float64, []float64, string, bool, bool) {
	return c.Uint(), c.Int(), c.Float(), c.Floats(), c.String(), c.Bool(), c.Bool()
}

func TestRoundTrip(t *testing.T) {
	c := NewCursor(sample())
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

// TestTruncated cuts the payload at every length: every field reads at
// least one byte, so no prefix may read back without ErrCorrupt.
func TestTruncated(t *testing.T) {
	raw := sample()
	for cut := 0; cut < len(raw); cut++ {
		c := NewCursor(raw[:cut])
		readSample(c)
		if !errors.Is(c.Err(), ErrCorrupt) {
			t.Fatalf("truncation at %d/%d read back with err %v", cut, len(raw), c.Err())
		}
	}
}

func TestImplausibleLength(t *testing.T) {
	c := NewCursor(AppendUint(nil, 1<<40)) // far past maxLen, read back as a length
	if c.Int(); c.Err() == nil {
		t.Fatal("implausible length accepted")
	}
	// A count below maxLen that the payload cannot hold fails before
	// anything is allocated for it.
	c = NewCursor(AppendUint(nil, 1<<27))
	if fs := c.Floats(); fs != nil || !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("Floats of an overrunning count = %d values, err %v", len(fs), c.Err())
	}
}

func TestAppendCursorRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUint(b, 0)
	b = AppendUint(b, 1<<40)
	b = AppendString(b, "")
	b = AppendString(b, "cheap flights")
	b = AppendBool(b, true)
	b = AppendBool(b, false)

	c := NewCursor(b)
	if got := c.Uint(); got != 0 {
		t.Fatalf("Uint = %d", got)
	}
	if got := c.Uint(); got != 1<<40 {
		t.Fatalf("Uint = %d", got)
	}
	if got := c.String(); got != "" {
		t.Fatalf("String = %q", got)
	}
	if got := c.String(); got != "cheap flights" {
		t.Fatalf("String = %q", got)
	}
	if !c.Bool() || c.Bool() {
		t.Fatal("Bool round trip broke")
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if c.Remaining() != 0 {
		t.Fatalf("%d bytes left over", c.Remaining())
	}
}

func TestCursorSticksOnCorruption(t *testing.T) {
	// A string header claiming far more bytes than the buffer holds.
	b := AppendUint(nil, 1<<30)
	c := NewCursor(b)
	if got := c.String(); got != "" {
		t.Fatalf("truncated string decoded to %q", got)
	}
	if c.Err() == nil {
		t.Fatal("oversized length accepted")
	}
	// Every later read observes the sticky error and returns zero values.
	if c.Uint() != 0 || c.Byte() != 0 || c.Bool() || c.String() != "" {
		t.Fatal("reads after corruption returned non-zero values")
	}

	// Reading past the end of an empty buffer is also corruption.
	c2 := NewCursor(nil)
	c2.Uint()
	if c2.Err() == nil {
		t.Fatal("read past end accepted")
	}
}

func TestCursorIntBound(t *testing.T) {
	// Int refuses counts that could not describe real data (> maxLen),
	// so decoders can size slices from it without an OOM guard each.
	c := NewCursor(AppendUint(nil, uint64(maxLen)+1))
	if got := c.Int(); got != 0 || c.Err() == nil {
		t.Fatalf("Int = %d, err %v — absurd count accepted", got, c.Err())
	}
	c2 := NewCursor(AppendUint(nil, 42))
	if got := c2.Int(); got != 42 || c2.Err() != nil {
		t.Fatalf("Int = %d, err %v", got, c2.Err())
	}
}

func TestSyncDir(t *testing.T) {
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on a real directory: %v", err)
	}
	if err := syncDir("/does/not/exist"); err == nil ||
		!strings.Contains(err.Error(), "no such file") {
		t.Fatalf("syncDir on a missing directory: %v", err)
	}
}
