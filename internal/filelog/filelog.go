// Package filelog holds the file primitives the two durable stores — the
// jobs checkpoint and the hosted-system op log — share: Replay, the one
// reader of an append-only log that cuts off a torn or corrupt tail, and
// WriteFile, the one atomic (temp file and rename) writer of whole files.
package filelog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
)

// Replay passes each complete line of the log at path to keep, in file order
// and without its newline, until keep refuses one. It then truncates the file
// to the lines keep accepted: a refused line, everything after it, and a
// final line without a newline (an append cut short by a crash) are gone. A
// missing file is an empty log.
func Replay(path string, keep func(line []byte) bool) error {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	kept := 0 // byte length of the accepted prefix
	for kept < len(raw) {
		nl := bytes.IndexByte(raw[kept:], '\n')
		if nl < 0 || !keep(raw[kept:kept+nl]) {
			break
		}
		kept += nl + 1
	}
	if kept < len(raw) {
		return os.Truncate(path, int64(kept))
	}
	return nil
}

// WriteFile replaces the file at path with data, so that a reader, or a
// process restarted after a crash, sees the old content or the new, never a
// mix: it writes a temp file beside path and renames it over path. With
// fsync, the temp file is synced before the rename and the directory after
// it, so the new content is on stable storage when WriteFile returns.
// Writers of one path must not overlap; they share the temp file.
func WriteFile(path string, data []byte, fsync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if fsync {
		return SyncDir(filepath.Dir(path))
	}
	return nil
}

// SyncDir forces the entries of directory dir — files created, renamed or
// removed in it — to stable storage.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
