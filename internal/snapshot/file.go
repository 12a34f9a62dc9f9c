package snapshot

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// WriteFileAtomic writes an artifact to path through save, atomically
// and durably: the bytes land in a temp file in the destination
// directory, the file is fsynced before the rename (so the data cannot
// outlive a crash as an empty rename target), and the parent directory
// is fsynced after it (so the rename itself survives power loss). A
// serving process watching the path can never load a half-written
// artifact. On failure the temp file is removed and the destination is
// left untouched.
func WriteFileAtomic(path string, save func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if err := save(tmp); err != nil {
		_ = tmp.Close() // temp file is discarded; save's error is the one to keep
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making renames and file creations inside
// it durable. Filesystems that cannot fsync a directory (some network
// and FUSE mounts report EINVAL or ENOTSUP) degrade gracefully rather
// than failing the write that already landed.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer func() { _ = d.Close() }() // read-only directory handle
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
