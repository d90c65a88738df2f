// Package checkpoint makes long-running parameter sweeps and the
// simulation daemon crash-safe.
//
// Its two logs share one durable append log (appendLog, log.go): a
// JSONL file whose first line is a magic header and whose records each
// carry a CRC-32C, fsynced before an append is acknowledged, with a
// failed write repaired or the log poisoned. A process killed at any
// instant therefore leaves a log whose damage is confined to a
// partially written tail record, and reopening it salvages the valid
// prefix instead of failing the run.
//
//   - Journal: completed sweep points, keyed by sweep name, point index
//     and sweep seed. Re-running a sweep against the same journal skips
//     journaled points and replays their cached results, so an
//     interrupted-then-resumed sweep reproduces the uninterrupted run
//     byte for byte (results round-trip exactly: encoding/json renders
//     float64 in shortest form, which parses back to the identical
//     bits). A journal is bound to a config fingerprint (Fingerprint):
//     resuming with different experiment parameters is refused rather
//     than silently mixing results from two incompatible runs.
//
//   - JobLog: the service daemon's sequence-numbered job-state
//     transitions, from which a restarted daemon recovers the jobs that
//     were in flight when it died.
//
// Atomic file writes (WriteFileAtomic, AtomicFile) commit result
// artifacts (CSV, JSON, traces) with the temp-file + fsync + rename
// idiom, so readers never observe a torn file and a crash mid-write
// leaves the previous version intact.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Record is one journaled sweep point.
type Record struct {
	// Sweep namespaces point indices: one journal serves every sweep of
	// a run (fig1, fig2, ...) without index collisions.
	Sweep string `json:"sweep"`
	// Point is the sweep point index.
	Point int `json:"point"`
	// Seed is the sweep's base seed, stored as a resume guard: a cached
	// result is replayed only when the seed matches.
	Seed uint64 `json:"seed"`
	// Result is the point's JSON-encoded result value.
	Result json.RawMessage `json:"result"`
	// Sum is a CRC-32C over (Sweep, Point, Seed, Result); it rejects
	// records garbled in place, which a JSON parse alone would accept.
	Sum uint32 `json:"crc"`
}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NewRecord builds a checksummed record from a point's raw JSON result.
// Records travel beyond the journal file: the distributed sweep executor
// uses them as its wire format, so a worker's computed point carries the
// same CRC on the network that it would carry on disk.
func NewRecord(sweep string, point int, seed uint64, result json.RawMessage) Record {
	r := Record{Sweep: sweep, Point: point, Seed: seed, Result: result}
	r.Sum = r.checksum()
	return r
}

// Verify reports whether the record's CRC matches its contents.
func (r Record) Verify() bool { return r.Sum == r.checksum() }

// checksum computes the record's CRC over everything but Sum itself.
func (r Record) checksum() uint32 {
	h := crc32.New(castagnoli)
	h.Write([]byte(r.Sweep))
	var b [17]byte // separator + point + seed: unambiguous framing
	binary.LittleEndian.PutUint64(b[1:9], uint64(int64(r.Point)))
	binary.LittleEndian.PutUint64(b[9:17], r.Seed)
	h.Write(b[:])
	h.Write(r.Result)
	return h.Sum32()
}

// DecodeJournal parses journal bytes tolerantly. It returns the config
// fingerprint, every intact record, and the byte length of the valid
// prefix. Decoding stops at the first damaged line (a torn tail, a CRC
// mismatch, a missing final newline) and salvages everything before
// it; such damage is not an error. Only an unusable header is.
func DecodeJournal(data []byte) (fingerprint string, records []Record, valid int, err error) {
	h, records, valid, err := decodeLog(data, "journal",
		func(h header) bool { return h.Magic == journalMagic && h.Version == logVersion && h.Fingerprint != "" },
		func(r *Record) bool { return r.Point >= 0 && r.Result != nil && r.Verify() })
	return h.Fingerprint, records, valid, err
}

// Fingerprint derives a short stable hash of an arbitrary configuration
// value (any JSON-encodable struct or map). Journals created under one
// fingerprint refuse to resume under another, so cached results can
// never leak between incompatible experiment configurations.
func Fingerprint(config any) (string, error) {
	b, err := json.Marshal(config)
	if err != nil {
		return "", fmt.Errorf("checkpoint: fingerprint: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
