package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/vfs"
)

// The durability property the storage-chaos harness leans on, in its
// smallest form: under ANY single injected fault — every operation
// class, every failure kind, every trigger index — a journal or job log
// ends the run in a state where
//
//   1. the on-disk file (read back through the clean OS, as a restarted
//      process would) decodes without error,
//   2. every append that was ACKNOWLEDGED (returned nil) is in the
//      decoded prefix, and
//   3. every decoded record is one the workload actually wrote —
//      never a silently truncated or mangled record accepted as
//      complete.
//
// Faults must surface as loud errors; they may cost unacknowledged
// records, never acknowledged ones.

const propPoints = 6

// propLog adapts one log type to the shared fault-property suite. Both
// logs run on the same appendLog core, and both are held to the same
// properties under the same fault matrix.
type propLog struct {
	file string
	// name formats a single-fault subtest name. The two spellings are
	// kept as they were before the logs shared this suite, so every
	// case keeps its test ID: journal cases always spell the sticky
	// flag, job-log cases only when it is set.
	name func(vfs.Fault) string
	// run opens the log over fsys, appends propPoints records and
	// closes it, reporting which appends were acknowledged.
	run func(fsys vfs.FS, path string) (acked map[int]bool, openErr error)
	// decode decodes the on-disk bytes, failing the test on a decode
	// error or on any record the workload did not write, and returns
	// the indices of the decoded records.
	decode func(t *testing.T, data []byte) map[int]bool
	// reopen reopens the log through the clean OS, as a restarted
	// process would, and checks that it resumes every acknowledged
	// record and accepts one more append.
	reopen func(t *testing.T, path string, acked map[int]bool)
}

var journalProp = propLog{
	file: "sweep.ckpt",
	name: func(ft vfs.Fault) string {
		return fmt.Sprintf("%s-%s-n%d-sticky%v", ft.Op, ft.Kind, ft.Nth, ft.Sticky)
	},
	run: func(fsys vfs.FS, path string) (map[int]bool, error) {
		j, err := OpenFS(fsys, path, "fp-prop")
		if err != nil {
			return nil, err
		}
		acked := map[int]bool{}
		for i := 0; i < propPoints; i++ {
			if err := j.Append("fig1", i, uint64(100+i), []float64{float64(i), 0.5}); err == nil {
				acked[i] = true
			}
		}
		j.Close()
		return acked, nil
	},
	decode: func(t *testing.T, data []byte) map[int]bool {
		fp, recs, _, err := DecodeJournal(data)
		if err != nil {
			t.Fatalf("on-disk journal does not decode: %v", err)
		}
		if fp != "fp-prop" {
			t.Fatalf("fingerprint %q", fp)
		}
		decoded := map[int]bool{}
		for _, r := range recs {
			if r.Sweep != "fig1" || r.Point < 0 || r.Point >= propPoints ||
				r.Seed != uint64(100+r.Point) || !r.Verify() {
				t.Fatalf("decoded record not among the appended ones: %+v", r)
			}
			decoded[r.Point] = true
		}
		return decoded
	},
	reopen: func(t *testing.T, path string, acked map[int]bool) {
		j, err := Open(path, "fp-prop")
		if err != nil {
			t.Fatalf("clean reopen after fault: %v", err)
		}
		defer j.Close()
		for p := range acked {
			if !j.Has("fig1", p, uint64(100+p)) {
				t.Fatalf("acknowledged point %d not resumable", p)
			}
		}
		if err := j.Append("fig1", propPoints, 100+propPoints, []float64{0.5}); err != nil {
			t.Fatalf("append after clean reopen: %v", err)
		}
	},
}

var jobLogProp = propLog{
	file: "jobs.log",
	name: func(ft vfs.Fault) string {
		if ft.Sticky {
			return fmt.Sprintf("%s-%s-n%d-sticky", ft.Op, ft.Kind, ft.Nth)
		}
		return fmt.Sprintf("%s-%s-n%d", ft.Op, ft.Kind, ft.Nth)
	},
	run: func(fsys vfs.FS, path string) (map[int]bool, error) {
		l, _, err := OpenJobLogFS(fsys, path)
		if err != nil {
			return nil, err
		}
		acked := map[int]bool{}
		for i := 0; i < propPoints; i++ {
			rec := JobRecord{ID: fmt.Sprintf("j%03d", i), State: JobAccepted, Fingerprint: "fp", Note: "prop"}
			if err := l.Append(rec); err == nil {
				acked[i] = true
			}
		}
		l.Close()
		return acked, nil
	},
	decode: func(t *testing.T, data []byte) map[int]bool {
		recs, _, err := DecodeJobLog(data)
		if err != nil {
			t.Fatalf("on-disk job log does not decode: %v", err)
		}
		decoded := map[int]bool{}
		for _, r := range recs {
			var i int
			if _, err := fmt.Sscanf(r.ID, "j%03d", &i); err != nil || i < 0 || i >= propPoints ||
				r.State != JobAccepted || r.Fingerprint != "fp" || r.Note != "prop" || r.Sum != r.checksum() {
				t.Fatalf("decoded record not among the appended ones: %+v", r)
			}
			decoded[i] = true
		}
		return decoded
	},
	reopen: func(t *testing.T, path string, acked map[int]bool) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := DecodeJobLog(data)
		if err != nil {
			t.Fatal(err)
		}
		l, recs, err := OpenJobLog(path)
		if err != nil {
			t.Fatalf("clean reopen after fault: %v", err)
		}
		defer l.Close()
		if !reflect.DeepEqual(recs, want) {
			t.Fatalf("reopen returned %+v, decoded %+v", recs, want)
		}
		next := 1
		if len(recs) > 0 {
			next = recs[len(recs)-1].Seq + 1
		}
		if got := l.NextSeq(); got != next {
			t.Fatalf("NextSeq = %d after reopen, want %d", got, next)
		}
		if err := l.Append(JobRecord{ID: "jnext", State: JobAccepted}); err != nil {
			t.Fatalf("append after clean reopen: %v", err)
		}
	},
}

// checkFaultProperty runs lg's workload under plan and checks the
// three properties plus a clean reopen.
func checkFaultProperty(t *testing.T, lg propLog, plan vfs.Plan) {
	t.Helper()
	path := filepath.Join(t.TempDir(), lg.file)
	acked, openErr := lg.run(vfs.NewFaulty(vfs.OS, plan), path)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		// The header never landed; that is only legal if the open
		// itself failed loudly.
		if openErr == nil {
			t.Fatalf("log file missing but the open succeeded")
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	// Properties 1 and 3: whatever the fault did, the file decodes to
	// records the workload wrote, bit-exact. The header is atomic (temp
	// file + rename) and appends repair torn tails, so a decode error
	// here would mean acknowledged state is unreadable.
	decoded := lg.decode(t, data)
	// Property 2: acked ⊆ decoded.
	for i := range acked {
		if !decoded[i] {
			t.Fatalf("acknowledged record %d missing from the decoded log (decoded %v)", i, decoded)
		}
	}
	lg.reopen(t, path, acked)
}

func singleFaultProperty(t *testing.T, lg propLog) {
	ops := []vfs.Op{vfs.OpOpen, vfs.OpCreate, vfs.OpRead, vfs.OpWrite, vfs.OpSync,
		vfs.OpClose, vfs.OpRename, vfs.OpTruncate, vfs.OpSyncDir}
	kinds := []vfs.Kind{vfs.KindENOSPC, vfs.KindEIO, vfs.KindShort, vfs.KindCrash}
	for _, op := range ops {
		for _, kind := range kinds {
			if kind == vfs.KindShort && op != vfs.OpWrite {
				continue
			}
			for nth := 1; nth <= 2*propPoints; nth++ {
				for _, sticky := range []bool{false, true} {
					if sticky && kind == vfs.KindCrash {
						continue // crash is implicitly sticky
					}
					ft := vfs.Fault{Op: op, Kind: kind, Nth: nth, KeepBytes: 3 * nth, Sticky: sticky}
					t.Run(lg.name(ft), func(t *testing.T) {
						checkFaultProperty(t, lg, vfs.Plan{Faults: []vfs.Fault{ft}})
					})
				}
			}
		}
	}
}

func randomFaultProperty(t *testing.T, lg propLog) {
	for seed := uint64(0); seed < 64; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkFaultProperty(t, lg, vfs.RandomPlan(seed, 2*propPoints))
		})
	}
}

func TestJournalSingleFaultProperty(t *testing.T) { singleFaultProperty(t, journalProp) }
func TestJournalRandomFaultProperty(t *testing.T) { randomFaultProperty(t, journalProp) }
func TestJobLogSingleFaultProperty(t *testing.T)  { singleFaultProperty(t, jobLogProp) }
func TestJobLogRandomFaultProperty(t *testing.T)  { randomFaultProperty(t, jobLogProp) }
