package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The testdata fixtures pin the on-disk format. sweep.journal and
// jobs.log were written by an earlier revision of this package, each
// left with a torn tail record as a crash mid-append would; the
// .golden files hold what that revision wrote after reopening the
// fixture and appending one fixed record. State directories written
// by that revision must keep reopening, and new appends must stay
// byte-identical to it.

// copyFixture copies a testdata file into a fresh temp dir and returns
// the copy's path and the fixture's bytes.
func copyFixture(t *testing.T, name string) (string, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// checkSize requires the file at path to hold exactly n bytes.
func checkSize(t *testing.T, path string, n int) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(n) {
		t.Fatalf("%s holds %d bytes, want %d", path, fi.Size(), n)
	}
}

func checkGolden(t *testing.T, path, golden string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("on-disk bytes differ from %s:\ngot  %q\nwant %q", golden, got, want)
	}
}

func TestJournalGoldenFixture(t *testing.T) {
	path, data := copyFixture(t, "sweep.journal")
	j, err := Open(path, "fixture-fp")
	if err != nil {
		t.Fatal(err)
	}
	const torn = 40 // bytes of the fixture's torn tail record
	if got := j.SalvagedBytes(); got != torn {
		t.Fatalf("SalvagedBytes() = %d, want %d", got, torn)
	}
	want := []struct {
		sweep  string
		point  int
		result string
	}{
		{"fig1", 0, `{"X":0.30000000000000004,"S":"a"}`},
		{"fig1", 1, `[1.5,-2e-9]`},
		{"fig2", 0, `42`},
	}
	if got := j.Completed(); got != len(want) {
		t.Fatalf("Completed() = %d, want %d", got, len(want))
	}
	for _, w := range want {
		raw, ok := j.Lookup(w.sweep, w.point, 7)
		if !ok || string(raw) != w.result {
			t.Fatalf("Lookup(%s, %d) = %s, %v; want %s", w.sweep, w.point, raw, ok, w.result)
		}
	}
	checkSize(t, path, len(data)-torn)
	if err := j.AppendRaw("fig2", 1, 7, json.RawMessage(`{"X":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, path, "sweep.journal.golden")
}

func TestJobLogGoldenFixture(t *testing.T) {
	path, data := copyFixture(t, "jobs.log")
	l, recs, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ id, state, note string }{
		{"j000001-aaaaaaaa", JobAccepted, ""},
		{"j000002-bbbbbbbb", JobAccepted, ""},
		{"j000001-aaaaaaaa", JobLeased, "w1 points 0-3 attempt 1"},
		{"j000001-aaaaaaaa", JobDone, ""},
		{"j000002-bbbbbbbb", JobFailed, "deadline exceeded"},
	}
	if len(recs) != len(want) {
		t.Fatalf("salvaged %d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if r := recs[i]; r.Seq != i+1 || r.ID != w.id || r.State != w.state || r.Note != w.note {
			t.Fatalf("record %d = %+v, want seq %d %+v", i, r, i+1, w)
		}
	}
	const torn = 37 // bytes of the fixture's torn tail record
	checkSize(t, path, len(data)-torn)
	if got := l.NextSeq(); got != len(want)+1 {
		t.Fatalf("NextSeq() = %d, want %d", got, len(want)+1)
	}
	spec := json.RawMessage(`{"kind":"measure","n":60,"seed":3}`)
	if err := l.Append(JobRecord{ID: "j000003-cccccccc", State: JobAccepted, Fingerprint: "cccccccc", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, path, "jobs.log.golden")
}
