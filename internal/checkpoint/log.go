package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"repro/internal/vfs"
)

// ErrPoisoned marks appends to a journal or job log that suffered an
// unrecoverable storage failure earlier: a failed fsync or a torn write
// that could not be truncated away. Every subsequent append fails
// loudly with it rather than risking acknowledged records that a reopen
// would silently drop.
var ErrPoisoned = errors.New("checkpoint: log poisoned by an earlier storage failure")

// errClosed reports use after Close.
var errClosed = errors.New("checkpoint: log is closed")

// appendLog is the one durable log under both the sweep Journal and the
// service JobLog: a JSONL file of a header line followed by CRC-framed
// records, fsynced per append.
//
// It tracks the acknowledged (written + synced) byte length. A failed
// record write is repaired — truncated back to that length and synced —
// so a torn tail can never sit between two acknowledged records, where
// tolerant decoding would silently drop everything after it. If the
// repair fails, or any fsync fails, the log is poisoned and every
// further append returns ErrPoisoned: after a failed fsync the kernel
// may have dropped the dirty pages and will not report the failure
// again on a retried sync, so durability of anything not yet synced is
// unknowable. The invariant this buys: every record the log ever
// acknowledged is in the decoded prefix of the file, no matter which
// single operation failed.
type appendLog struct {
	mu     sync.Mutex
	f      vfs.File
	off    int64 // acknowledged (written + synced) byte length
	failed error // poison: set on unrecoverable storage failure
}

// open creates the log at path, committing header atomically (temp
// file + fsync + rename), or reopens an existing one. decode parses the
// existing bytes, reporting the length of their valid prefix; its error
// fails the open. A damaged tail past the valid prefix is truncated off
// and its length returned as salvaged.
func (l *appendLog) open(fsys vfs.FS, path string, header []byte, decode func(data []byte) (valid int, err error)) (salvaged int, err error) {
	fsys = vfs.Default(fsys)
	data, err := fsys.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := WriteFileAtomicFS(fsys, path, header, 0o644); err != nil {
			return 0, err
		}
		l.off = int64(len(header))
	case err != nil:
		return 0, fmt.Errorf("checkpoint: %w", err)
	default:
		valid, err := decode(data)
		if err != nil {
			return 0, err
		}
		if salvaged = len(data) - valid; salvaged > 0 {
			if err := fsys.Truncate(path, int64(valid)); err != nil {
				return 0, fmt.Errorf("checkpoint: truncating damaged tail: %w", err)
			}
		}
		l.off = int64(valid)
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	l.f = f
	return salvaged, nil
}

// appendLocked writes one encoded record line and fsyncs it; callers
// hold l.mu. what names the record in error messages and is only called
// on failure, so a successful append builds no context.
func (l *appendLog) appendLocked(line []byte, what func() string) error {
	if l.f == nil {
		return errClosed
	}
	if l.failed != nil {
		return fmt.Errorf("%w (%v)", ErrPoisoned, l.failed)
	}
	if _, werr := l.f.Write(line); werr != nil {
		terr := l.f.Truncate(l.off)
		if terr == nil {
			terr = l.f.Sync()
		}
		if terr != nil {
			l.failed = fmt.Errorf("repair after %v failed: %w", werr, terr)
		}
		return fmt.Errorf("checkpoint: append %s: %w", what(), werr)
	}
	if serr := l.f.Sync(); serr != nil {
		l.failed = fmt.Errorf("fsync failed: %w", serr)
		return fmt.Errorf("checkpoint: sync %s: %w", what(), serr)
	}
	l.off += int64(len(line))
	return nil
}

// Close syncs and closes the log. It is idempotent. A poisoned log's
// close releases the descriptor without syncing (durability was already
// forfeit and reported) and returns nil.
func (l *appendLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if l.failed != nil {
		l.f.Close()
		l.f = nil
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	return nil
}

// header is the first line of every log: a magic naming the log kind,
// a format version and, for sweep journals, the config fingerprint.
type header struct {
	Magic       string `json:"journal"`
	Version     int    `json:"v"`
	Fingerprint string `json:"fp"`
}

const (
	journalMagic = "manet-sweep"
	jobLogMagic  = "manet-jobs"
	logVersion   = 1
)

// encodeHeader renders a log's first line.
func encodeHeader(magic, fingerprint string) ([]byte, error) {
	b, err := json.Marshal(header{Magic: magic, Version: logVersion, Fingerprint: fingerprint})
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// decodeLog parses log bytes tolerantly. It returns the header, every
// intact record and the byte length of the valid prefix. Decoding stops
// at the first damaged line — a torn tail from a crash mid-append, a
// flipped byte caught by intact's CRC check, or a missing final newline
// — and everything before it is salvaged; such damage is not an error.
// Only a header that is missing, unparsable or rejected by headerOK
// (so nothing can be salvaged) returns a non-nil error; kind names the
// log in that error.
func decodeLog[R any](data []byte, kind string, headerOK func(header) bool, intact func(*R) bool) (h header, records []R, valid int, err error) {
	line, rest, ok := cutLine(data)
	if !ok {
		return header{}, nil, 0, fmt.Errorf("checkpoint: %s header missing or truncated", kind)
	}
	if err := json.Unmarshal(line, &h); err != nil {
		return header{}, nil, 0, fmt.Errorf("checkpoint: %s header: %w", kind, err)
	}
	if !headerOK(h) {
		return header{}, nil, 0, fmt.Errorf("checkpoint: not a v%d %s header: %q", logVersion, kind, line)
	}
	valid = len(data) - len(rest)
	for {
		line, next, ok := cutLine(rest)
		if !ok {
			return h, records, valid, nil
		}
		var r R
		if err := json.Unmarshal(line, &r); err != nil || !intact(&r) {
			return h, records, valid, nil
		}
		records = append(records, r)
		rest = next
		valid = len(data) - len(rest)
	}
}

// cutLine splits off the first newline-terminated line. A final line
// with no terminating newline is not returned: an append crashed before
// completing it.
func cutLine(data []byte) (line, rest []byte, ok bool) {
	for i, c := range data {
		if c == '\n' {
			return data[:i], data[i+1:], true
		}
	}
	return nil, data, false
}
