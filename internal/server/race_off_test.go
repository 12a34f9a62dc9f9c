//go:build !race

package server

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation heap-allocates defer records, so exact alloc counts
// only hold in uninstrumented builds.
const raceEnabled = false
