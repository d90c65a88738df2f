package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/vfs"
)

// ErrFingerprintMismatch is returned by Open when an existing journal
// was written under a different config fingerprint.
var ErrFingerprintMismatch = errors.New("checkpoint: journal fingerprint does not match the current configuration")

// ErrUnencodableResult marks an Append whose result value JSON cannot
// represent (NaN or Inf in a float, say). The journal is untouched and
// still healthy; the point simply isn't cached and will re-run
// deterministically on resume. Callers can errors.Is on it to treat
// this as a benign skip rather than a journaling failure.
var ErrUnencodableResult = errors.New("checkpoint: result value is not JSON-encodable")

// ErrCorruptRecord marks an Ingest whose record fails its CRC check:
// the bytes were garbled in transit or by the producer. It is the
// caller's cue that the record — not the journal's storage — is bad;
// storage failures during ingest surface as other errors.
var ErrCorruptRecord = errors.New("checkpoint: record CRC mismatch")

// Journal is a crash-safe append-only log of completed sweep points.
// Appends are fsynced before they return, so an acknowledged point
// survives any subsequent crash; a crash mid-append damages at most the
// unacknowledged tail record, which Open silently truncates away. Failed
// appends are repaired or poison the journal (see appendLog). A Journal
// is safe for concurrent use by sweep workers.
type Journal struct {
	appendLog
	completed map[journalKey]json.RawMessage
	salvaged  int // bytes of damaged tail discarded on Open
}

type journalKey struct {
	sweep string
	point int
	seed  uint64
}

// Open creates the journal at path, or resumes an existing one. A new
// journal's header is committed atomically (temp file + fsync + rename)
// before the file is opened for appending. An existing journal is
// decoded tolerantly: a damaged tail is truncated off and its intact
// records become available through Lookup. Resuming a journal written
// under a different fingerprint fails with ErrFingerprintMismatch.
func Open(path, fingerprint string) (*Journal, error) {
	return OpenFS(vfs.OS, path, fingerprint)
}

// OpenFS is Open over an explicit filesystem — the seam fault-injection
// harnesses use to fail any operation of the journal's life cycle.
func OpenFS(fsys vfs.FS, path, fingerprint string) (*Journal, error) {
	if fingerprint == "" {
		return nil, fmt.Errorf("checkpoint: empty fingerprint")
	}
	hdr, err := encodeHeader(journalMagic, fingerprint)
	if err != nil {
		return nil, err
	}
	j := &Journal{completed: map[journalKey]json.RawMessage{}}
	j.salvaged, err = j.open(fsys, path, hdr, func(data []byte) (int, error) {
		fp, records, valid, err := DecodeJournal(data)
		if err != nil {
			return 0, err
		}
		if fp != fingerprint {
			return 0, fmt.Errorf("%w: journal %s has %s, current config is %s",
				ErrFingerprintMismatch, path, fp, fingerprint)
		}
		for _, r := range records {
			j.index(r.Sweep, r.Point, r.Seed, r.Result)
		}
		return valid, nil
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// index makes a committed record available to Lookup. Replay on Open
// and every append go through it, so the live view and a reopened view
// agree: the first record committed for a (sweep, point, seed) wins.
func (j *Journal) index(sweep string, point int, seed uint64, raw json.RawMessage) {
	k := journalKey{sweep, point, seed}
	if _, ok := j.completed[k]; !ok {
		j.completed[k] = raw
	}
}

// Append journals one completed sweep point and fsyncs it. A result
// JSON cannot represent (NaN or Inf in a float) returns
// ErrUnencodableResult and leaves the journal untouched; the caller
// keeps the in-memory result and the point simply re-runs on resume.
func (j *Journal) Append(sweep string, point int, seed uint64, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("%w: %s point %d: %v", ErrUnencodableResult, sweep, point, err)
	}
	return j.AppendRaw(sweep, point, seed, raw)
}

// AppendRaw journals one completed sweep point whose result is already
// JSON-encoded, and fsyncs it. It is the transport-level twin of Append:
// a coordinator merging records computed by remote workers appends the
// worker's exact result bytes, so the merged journal replays the same
// values a local run would have journaled.
func (j *Journal) AppendRaw(sweep string, point int, seed uint64, raw json.RawMessage) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendRawLocked(sweep, point, seed, raw)
}

// appendRawLocked writes and fsyncs one record; callers hold j.mu.
func (j *Journal) appendRawLocked(sweep string, point int, seed uint64, raw json.RawMessage) error {
	what := func() string { return fmt.Sprintf("%s point %d", sweep, point) }
	line, err := json.Marshal(NewRecord(sweep, point, seed, raw))
	if err != nil {
		return fmt.Errorf("checkpoint: encode %s: %w", what(), err)
	}
	if err := j.appendLocked(append(line, '\n'), what); err != nil {
		return err
	}
	j.index(sweep, point, seed, raw)
	return nil
}

// Ingest merges one externally produced record (a remote worker's
// result) into the journal with first-committed-wins semantics: a point
// already present under the record's seed — whatever process computed
// it — is left untouched and the duplicate is reported, not an error.
// The record's CRC is verified before anything is written — a garbled
// record fails with ErrCorruptRecord and never reaches the journal. The
// duplicate check and the append are one critical section, so two
// racing ingests of the same point commit exactly one record. It
// returns whether the record was appended.
func (j *Journal) Ingest(rec Record) (bool, error) {
	if !rec.Verify() {
		return false, fmt.Errorf("%w: ingest %s point %d", ErrCorruptRecord, rec.Sweep, rec.Point)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.completed[journalKey{rec.Sweep, rec.Point, rec.Seed}]; dup {
		return false, nil
	}
	if err := j.appendRawLocked(rec.Sweep, rec.Point, rec.Seed, rec.Result); err != nil {
		return false, err
	}
	return true, nil
}

// Has reports whether the journal holds a result for the point under
// the given seed.
func (j *Journal) Has(sweep string, point int, seed uint64) bool {
	_, ok := j.Lookup(sweep, point, seed)
	return ok
}

// Lookup returns the cached result of a journaled point, if present and
// recorded under the same sweep seed.
func (j *Journal) Lookup(sweep string, point int, seed uint64) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.completed[journalKey{sweep, point, seed}]
	return raw, ok
}

// Completed reports how many points the journal holds.
func (j *Journal) Completed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.completed)
}

// SalvagedBytes reports how many bytes of damaged tail Open discarded
// (zero for a clean journal).
func (j *Journal) SalvagedBytes() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.salvaged
}

var _ io.Closer = (*Journal)(nil)
