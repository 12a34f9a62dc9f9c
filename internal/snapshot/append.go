package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Append-style codec primitives: uvarints, length-prefixed strings,
// boolean bytes and little-endian float64s over byte slices — the wire
// forms of a v2 artifact's meta section and of internal/wal's
// length-prefixed log records. AppendX grow dst in
// place; Cursor walks a payload back out with a sticky error, bounding
// every length by maxLen and by the bytes that are left.

// AppendUint appends an unsigned varint.
func AppendUint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends a single boolean byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloat appends one float64 as little-endian IEEE-754 bits.
func AppendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendFloats appends a length-prefixed []float64.
func AppendFloats(dst []byte, fs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fs)))
	for _, f := range fs {
		dst = AppendFloat(dst, f)
	}
	return dst
}

// Cursor reads the Append* wire forms back out of one byte slice.
// Methods after an error return zero values; Err surfaces the first
// failure. A short or corrupt buffer fails with ErrCorrupt rather than
// panicking or over-reading.
type Cursor struct {
	buf []byte
	off int
	err error
}

// NewCursor returns a cursor over b.
func NewCursor(b []byte) *Cursor { return &Cursor{buf: b} }

// Remaining returns how many unread bytes are left.
func (c *Cursor) Remaining() int { return len(c.buf) - c.off }

// Err returns the cursor's sticky error, nil so far.
func (c *Cursor) Err() error { return c.err }

func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Failf records a semantic payload error (a wrong shape, an unknown kind
// byte) as ErrCorrupt, so a model decoder can reject bytes the wire
// forms read cleanly.
func (c *Cursor) Failf(format string, args ...any) {
	c.fail(fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...))
}

// Uint reads an unsigned varint.
func (c *Cursor) Uint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.fail(fmt.Errorf("%w: bad varint at offset %d", ErrCorrupt, c.off))
		return 0
	}
	c.off += n
	return v
}

// Int reads a length/count, bounded by the codec's maxLen so a corrupt
// prefix cannot drive a huge allocation.
func (c *Cursor) Int() int {
	v := c.Uint()
	if v > maxLen {
		c.fail(fmt.Errorf("%w: implausible length %d", ErrCorrupt, v))
		return 0
	}
	return int(v)
}

// Byte reads one raw byte.
func (c *Cursor) Byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.buf) {
		c.fail(fmt.Errorf("%w: truncated payload", ErrCorrupt))
		return 0
	}
	b := c.buf[c.off]
	c.off++
	return b
}

// Bool reads a single boolean byte.
func (c *Cursor) Bool() bool { return c.Byte() != 0 }

// Float reads one little-endian float64.
func (c *Cursor) Float() float64 {
	if c.err != nil {
		return 0
	}
	if c.Remaining() < 8 {
		c.fail(fmt.Errorf("%w: truncated payload", ErrCorrupt))
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
	c.off += 8
	return f
}

// Floats reads a length-prefixed []float64 (nil when empty). A count
// the remaining bytes cannot hold fails before anything is allocated.
func (c *Cursor) Floats() []float64 {
	n := c.Int()
	if c.err != nil || n == 0 {
		return nil
	}
	if n > c.Remaining()/8 {
		c.fail(fmt.Errorf("%w: %d floats overrun the payload", ErrCorrupt, n))
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = c.Float()
	}
	return out
}

// String reads a length-prefixed string.
func (c *Cursor) String() string {
	n := c.Int()
	if c.err != nil || n == 0 {
		return ""
	}
	if c.Remaining() < n {
		c.fail(fmt.Errorf("%w: string of %d bytes overruns payload", ErrCorrupt, n))
		return ""
	}
	s := string(c.buf[c.off : c.off+n])
	c.off += n
	return s
}
