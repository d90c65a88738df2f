package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/vfs"
)

// Job-state records for the simulation service daemon.
//
// The sweep Journal above answers "which points of this sweep already
// ran"; the JobLog answers the question one level up: "which jobs did
// the daemon accept, and which of them reached a terminal state". A
// daemon killed at any instant leaves a log whose accepted-but-not-
// terminal jobs are exactly the ones to recover on restart — each of
// which then resumes its own per-job sweep Journal, so the recovered
// run's artifact is byte-identical to an uninterrupted one.
//
// Both logs are the same durable append log underneath (appendLog in
// log.go); a job log differs only in its header magic, its record type
// and the sequence numbers it assigns.

// Job-state names recorded in the log. Only terminal states other than
// JobAccepted appear as non-first records for an id; a job whose last
// record is JobAccepted (or JobLeased, the distributed executor's
// dispatch audit trail) was in flight when the process died.
const (
	JobAccepted = "accepted"
	// JobLeased records one lease grant of the distributed sweep
	// executor: which worker was dispatched which points, and which
	// attempt it was. It is an audit record, not a state change — the
	// job stays in flight, and a restart re-queues it exactly like a
	// job whose last record is JobAccepted.
	JobLeased = "leased"
	JobDone   = "done"
	JobFailed = "failed"
)

// JobRecord is one job-state transition in the service job log.
type JobRecord struct {
	// Seq is the log-wide monotonic sequence number; it fixes the
	// recovery order of in-flight jobs (first accepted, first resumed).
	Seq int `json:"seq"`
	// ID is the job's stable identifier.
	ID string `json:"id"`
	// State is JobAccepted, JobDone or JobFailed.
	State string `json:"state"`
	// Fingerprint is the job's scenario fingerprint (result cache key).
	Fingerprint string `json:"fp,omitempty"`
	// Spec is the JSON-encoded job specification; present on JobAccepted
	// records so recovery can rebuild the job without any other state.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Note carries the human-readable reason of a terminal state
	// (failure cause, "cache" for a cache-served job, ...).
	Note string `json:"note,omitempty"`
	// Sum is a CRC-32C over every other field; it rejects records
	// garbled in place, which a JSON parse alone would accept.
	Sum uint32 `json:"crc"`
}

// checksum computes the record's CRC over everything but Sum itself.
func (r JobRecord) checksum() uint32 {
	h := crc32.New(castagnoli)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(r.Seq)))
	h.Write(b[:])
	for _, s := range []string{r.ID, r.State, r.Fingerprint, r.Note} {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		h.Write([]byte(s))
	}
	h.Write(r.Spec)
	return h.Sum32()
}

// JobLog is the crash-safe append-only job-state log of a service
// daemon. Appends are fsynced before they return, so an acknowledged
// state transition survives any subsequent crash; a crash mid-append
// damages at most the unacknowledged tail record, which OpenJobLog
// silently truncates away. Failed appends are repaired or poison the
// log (see appendLog). A JobLog is safe for concurrent use.
type JobLog struct {
	appendLog
	next int // next sequence number
}

// OpenJobLog creates the log at path, or reopens an existing one,
// returning the salvaged records in append order. A damaged tail is
// truncated off; only an unusable header fails the open.
func OpenJobLog(path string) (*JobLog, []JobRecord, error) {
	return OpenJobLogFS(vfs.OS, path)
}

// OpenJobLogFS is OpenJobLog over an explicit filesystem.
func OpenJobLogFS(fsys vfs.FS, path string) (*JobLog, []JobRecord, error) {
	// Unlike a sweep journal, a job log carries no config fingerprint:
	// the daemon must be able to recover jobs across restarts even when
	// its own serving configuration (queue depth, rates) changed; each
	// job's scenario fingerprint lives in its records instead.
	hdr, err := encodeHeader(jobLogMagic, "")
	if err != nil {
		return nil, nil, err
	}
	l := &JobLog{next: 1}
	var records []JobRecord
	_, err = l.open(fsys, path, hdr, func(data []byte) (valid int, err error) {
		records, valid, err = DecodeJobLog(data)
		for _, r := range records {
			l.next = max(l.next, r.Seq+1)
		}
		return valid, err
	})
	if err != nil {
		return nil, nil, err
	}
	return l, records, nil
}

// DecodeJobLog parses job-log bytes tolerantly, returning every intact
// record and the byte length of the valid prefix. Like DecodeJournal it
// salvages everything before the first damaged line; only an unusable
// header is an error.
func DecodeJobLog(data []byte) (records []JobRecord, valid int, err error) {
	_, records, valid, err = decodeLog(data, "job log",
		func(h header) bool { return h.Magic == jobLogMagic && h.Version == logVersion },
		func(r *JobRecord) bool { return r.Seq > 0 && r.ID != "" && r.State != "" && r.Sum == r.checksum() })
	return records, valid, err
}

// Append journals one job-state transition and fsyncs it. The record's
// Seq and Sum are assigned by the log; the passed record's values for
// them are ignored.
func (l *JobLog) Append(rec JobRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	what := func() string { return fmt.Sprintf("job %s %s", rec.ID, rec.State) }
	rec.Seq = l.next
	rec.Sum = rec.checksum()
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("checkpoint: encode %s: %w", what(), err)
	}
	if err := l.appendLocked(append(line, '\n'), what); err != nil {
		return err
	}
	l.next++
	return nil
}

// NextSeq returns the sequence number the next Append will record.
func (l *JobLog) NextSeq() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}
