package wal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Checkpoint files: an opaque payload (the owner's columns, or the
// router's JSON) framed by a one-line header carrying a CRC32 and the
// length of the payload, written atomically (temp file + fsync + rename).
// A checkpoint is advisory state — the log remains authoritative — so
// loaders treat a missing, torn or corrupt checkpoint as "no checkpoint"
// and fall back to a full log scan rather than failing the open.

// checkpointMagic guards against loading a file that is not a checkpoint.
const checkpointMagic = "provckpt1"

// EncodeCheckpoint frames payload as checkpoint file contents: the
// integrity header, then the payload.
func EncodeCheckpoint(payload []byte) []byte {
	buf := fmt.Appendf(nil, "%s %08x %d\n", checkpointMagic, crc32.ChecksumIEEE(payload), len(payload))
	return append(buf, payload...)
}

// SaveCheckpoint atomically writes payload to path with an integrity
// header through WriteFileAtomic.
func SaveCheckpoint(path string, payload []byte) error {
	return WriteFileAtomic(path, EncodeCheckpoint(payload))
}

// WriteFileAtomic replaces path with data: a temp file beside it is
// written and fsynced, renamed over path, and the directory fsynced after
// the rename, so a crash leaves either the old contents or the new ones,
// never a torn mix, and a completed call survives power loss.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	// Sweep temp files a crashed earlier save left behind — the deferred
	// remove below only runs in-process, so without this a repeatedly
	// crashing daemon accumulates orphans next to the log. A concurrent
	// save of the same path can lose its temp to the sweep and fail its
	// rename, which is harmless: the surviving save installs a complete
	// file.
	if stale, gerr := filepath.Glob(path + ".tmp-*"); gerr == nil {
		for _, p := range stale {
			_ = os.Remove(p)
		}
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: temp file for %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("wal: install %s: %w", path, err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// LoadCheckpoint returns the payload of a checkpoint written by
// SaveCheckpoint. ok=false means no usable checkpoint exists — absent,
// unreadable, torn or corrupt — and the caller should rebuild from the log
// instead.
func LoadCheckpoint(path string) (payload []byte, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	return DecodeCheckpoint(data)
}

// DecodeCheckpoint returns the payload of checkpoint file contents,
// reporting false for anything but an intact frame.
func DecodeCheckpoint(data []byte) (payload []byte, ok bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, false
	}
	var magic string
	var sum uint32
	var size int
	if _, err := fmt.Sscanf(string(data[:nl]), "%s %x %d", &magic, &sum, &size); err != nil || magic != checkpointMagic {
		return nil, false
	}
	body := data[nl+1:]
	if len(body) != size || crc32.ChecksumIEEE(body) != sum {
		return nil, false
	}
	return body, true
}
