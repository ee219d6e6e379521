package filelog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// replayLines runs Replay on the file at path with keep accepting each line
// that is valid JSON, the way the stores refuse a torn or corrupt record, and
// returns every line keep saw, in order.
func replayLines(t *testing.T, path string) [][]byte {
	t.Helper()
	var seen [][]byte
	err := Replay(path, func(line []byte) bool {
		seen = append(seen, bytes.Clone(line))
		return json.Valid(line)
	})
	if err != nil {
		t.Fatal(err)
	}
	return seen
}

func equalLines(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzReplay runs Replay over arbitrary file contents. keep must see exactly
// the complete lines, in order, up to and including its first refusal; the
// file must then hold exactly the accepted lines; and a second Replay must
// accept them all and change nothing. The committed corpus seeds an empty
// file, a final line without a newline, torn JSON, NUL and 0xFF bytes, CRLF
// line ends and a refused middle line.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The expectation, from a split of data into newline-ended pieces.
		var complete, accepted [][]byte
		var prefix []byte
		for _, piece := range bytes.SplitAfter(data, []byte("\n")) {
			line, ok := bytes.CutSuffix(piece, []byte("\n"))
			if !ok {
				break // the final piece has no newline: not a complete line
			}
			complete = append(complete, line)
			if !json.Valid(line) {
				break
			}
			accepted = append(accepted, line)
			prefix = append(prefix, piece...)
		}

		if seen := replayLines(t, path); !equalLines(seen, complete) {
			t.Fatalf("keep saw %q, want the complete lines up to the first refusal %q", seen, complete)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("after Replay the file is %q, want the accepted prefix %q", got, prefix)
		}
		if seen := replayLines(t, path); !equalLines(seen, accepted) {
			t.Fatalf("second Replay: keep saw %q, want %q", seen, accepted)
		}
		if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, prefix) {
			t.Fatalf("second Replay changed the file to %q (err %v), want %q", again, err, prefix)
		}
	})
}

// TestReplayMissingFile: a missing log is empty, and Replay does not create
// it.
func TestReplayMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.jsonl")
	if seen := replayLines(t, path); len(seen) != 0 {
		t.Fatalf("keep saw %q in a missing file", seen)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Replay created the missing file: %v", err)
	}
}

// TestWriteFile: the file holds exactly the last data written, with or
// without fsync, and no temp file is left beside it.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	for i, data := range []string{"{\"v\":1}\n", "{\"v\":22}\n", ""} {
		if err := WriteFile(path, []byte(data), i%2 == 0); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("write %d: file holds %q (err %v), want %q", i, got, err, data)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after the writes, want only doc.json", len(entries))
	}
}
