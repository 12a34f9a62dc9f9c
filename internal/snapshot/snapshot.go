// Package snapshot is the binary codec beneath the repository's
// versioned model artifacts: the train-offline / serve-online split
// fits a model in one process, Saves it to a self-describing artifact,
// and a serving binary Loads it back into a ready scorer (see
// internal/clickmodel and internal/core for the per-model parameter
// lists, and internal/engine for hot-swapping artifacts into a live
// engine).
//
// One artifact format is written: v2 ("MBS2", v2.go), a sectioned
// container whose bytes are the serving tables. A model's scalars travel
// in its "meta" section in the Append*/Cursor wire forms (append.go):
// uvarint counts and little-endian IEEE-754 floats.
//
// The first generation, v1, is read and never written:
//
//	magic "MBSN" | format version (uvarint) | model name (string)
//	| model payload | CRC-32 (IEEE, little-endian) of everything above
//
// with the payload in the same wire forms. OpenV1 checks the header and
// the checksum and returns a Cursor over the payload; internal/engine's
// importer turns that payload into the v2 artifact its model writes.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// magic identifies a v1 artifact.
const magic = "MBSN"

// Version is the v1 format version OpenV1 reads.
const Version = 1

// ErrCorrupt is wrapped by decoder errors caused by damaged input:
// bad magic, failed checksum, truncation, or implausible lengths.
var ErrCorrupt = errors.New("snapshot: corrupt artifact")

// maxLen bounds any single length prefix (strings, slices, maps). A
// corrupt length then fails fast instead of attempting a multi-GiB
// allocation.
const maxLen = 1 << 28

// OpenV1 checks a whole v1 artifact — magic, format version, checksum —
// and returns the model name its header records and a Cursor over the
// payload. A payload decoder should consume the cursor exactly: bytes
// left over mean the artifact and the decoder disagree.
func OpenV1(data []byte) (name string, payload *Cursor, err error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return "", nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:min(len(data), len(magic))])
	}
	c := &Cursor{buf: data, off: len(magic)}
	if v := c.Uint(); c.err == nil && v != Version {
		return "", nil, fmt.Errorf("snapshot: unsupported artifact version %d (this build reads version %d)", v, Version)
	}
	if c.err != nil || len(data)-4 < c.off {
		return "", nil, fmt.Errorf("%w: %d bytes cannot hold a v1 header and checksum", ErrCorrupt, len(data))
	}
	body := data[:len(data)-4]
	c.buf = body
	name = c.String()
	if c.err != nil {
		return "", nil, c.err
	}
	if want, got := binary.LittleEndian.Uint32(data[len(body):]), crc32.ChecksumIEEE(body); want != got {
		return "", nil, fmt.Errorf("%w: checksum mismatch (artifact %08x, computed %08x)", ErrCorrupt, want, got)
	}
	return name, c, nil
}
