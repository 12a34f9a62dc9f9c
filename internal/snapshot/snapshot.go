// Package snapshot is the binary codec beneath the repository's
// versioned model artifacts: the train-offline / serve-online split
// fits a model in one process, Saves it to a self-describing artifact,
// and a serving binary Loads it back into a ready scorer (see
// internal/clickmodel and internal/core for the per-model parameter
// lists, and internal/engine for hot-swapping artifacts into a live
// engine).
//
// There is one artifact format, v2 ("MBS2", v2.go): a sectioned
// container whose bytes are the serving tables. A model's scalars travel
// in its "meta" section in the Append*/Cursor wire forms (append.go):
// uvarint counts and little-endian IEEE-754 floats.
package snapshot

import "errors"

// ErrCorrupt is wrapped by decoder errors caused by damaged input:
// bad magic, failed checksum, truncation, or implausible lengths.
var ErrCorrupt = errors.New("snapshot: corrupt artifact")

// maxLen bounds any single length prefix (strings, slices, maps). A
// corrupt length then fails fast instead of attempting a multi-GiB
// allocation.
const maxLen = 1 << 28
