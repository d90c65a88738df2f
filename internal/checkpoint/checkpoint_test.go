package checkpoint

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type fakeResult struct {
	X float64
	S string
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := Open(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	want := []fakeResult{{X: 0.1 + 0.2, S: "a"}, {X: -3.5e-9, S: "b"}, {X: 42, S: ""}}
	for i, r := range want {
		if err := j.Append("fig1", i, 7, r); err != nil {
			t.Fatal(err)
		}
	}
	// A second sweep sharing the journal must not collide.
	if err := j.Append("fig2", 0, 7, fakeResult{X: 99}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Completed(); got != 4 {
		t.Fatalf("Completed() = %d, want 4", got)
	}
	if got := j2.SalvagedBytes(); got != 0 {
		t.Fatalf("SalvagedBytes() = %d on a clean journal", got)
	}
	for i, w := range want {
		raw, ok := j2.Lookup("fig1", i, 7)
		if !ok {
			t.Fatalf("point %d missing after reopen", i)
		}
		var got fakeResult
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("point %d: replayed %+v, want %+v (must be bit-exact)", i, got, w)
		}
	}
	if _, ok := j2.Lookup("fig1", 0, 8); ok {
		t.Error("Lookup matched a record under a different seed")
	}
	if _, ok := j2.Lookup("fig3", 0, 7); ok {
		t.Error("Lookup matched a record under a different sweep")
	}
}

// A journal's live view must agree with the view a reopen replays:
// both index a record by (sweep, point, seed) and keep the first one
// committed, so a point journaled under a second seed resumes after a
// restart, and a re-appended point keeps its first result.
func TestJournalLiveViewMatchesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := Open(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	appends := []struct {
		seed   uint64
		result string
	}{{1, `"x"`}, {2, `"y"`}, {2, `"z"`}}
	for _, a := range appends {
		if err := j.AppendRaw("s", 0, a.seed, json.RawMessage(a.result)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(view string, j *Journal) {
		t.Helper()
		for seed, want := range map[uint64]string{1: `"x"`, 2: `"y"`} {
			if raw, ok := j.Lookup("s", 0, seed); !ok || string(raw) != want {
				t.Errorf("%s view: Lookup(s, 0, seed %d) = %s, %v; want %s", view, seed, raw, ok, want)
			}
		}
		if got := j.Completed(); got != 2 {
			t.Errorf("%s view: Completed() = %d, want 2", view, got)
		}
	}
	check("live", j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	check("reopened", j2)
}

func TestJournalFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := Open(path, "fp-a")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Open(path, "fp-b"); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("Open with changed fingerprint: err = %v, want ErrFingerprintMismatch", err)
	}
}

func TestJournalSalvagesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := Open(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append("s", i, 1, fakeResult{X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Simulate a crash mid-append: tear the last record in half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-10]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path, "fp-1")
	if err != nil {
		t.Fatalf("Open on torn journal: %v", err)
	}
	if got := j2.Completed(); got != 2 {
		t.Fatalf("Completed() = %d after torn tail, want 2", got)
	}
	if j2.SalvagedBytes() == 0 {
		t.Error("SalvagedBytes() = 0, want > 0")
	}
	// The damaged tail must be truncated so new appends are parseable.
	if err := j2.Append("s", 2, 1, fakeResult{X: 2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := Open(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got := j3.Completed(); got != 3 {
		t.Fatalf("Completed() = %d after repair + append, want 3", got)
	}
	if got := j3.SalvagedBytes(); got != 0 {
		t.Fatalf("SalvagedBytes() = %d after repair, want 0", got)
	}
}

func TestJournalRejectsGarbledRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := Open(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	j.Append("s", 0, 1, fakeResult{X: 1.5})
	j.Append("s", 1, 1, fakeResult{X: 2.5})
	j.Close()

	// Flip a digit inside the first record's result: the line still
	// parses as JSON, so only the CRC can catch it. Decoding stops there,
	// dropping the garbled record and everything after it.
	data, _ := os.ReadFile(path)
	garbled := strings.Replace(string(data), "1.5", "1.6", 1)
	if garbled == string(data) {
		t.Fatal("test setup: payload digit not found")
	}
	os.WriteFile(path, []byte(garbled), 0o644)

	j2, err := Open(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Completed(); got != 0 {
		t.Fatalf("Completed() = %d after mid-journal corruption, want 0", got)
	}
}

func TestJournalUsableAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := Open(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := j.Append("s", 0, 1, fakeResult{}); err == nil {
		t.Error("Append after Close succeeded")
	}
}

func TestFingerprintStability(t *testing.T) {
	type cfg struct {
		Seed   uint64
		Events float64
	}
	a, err := Fingerprint(cfg{Seed: 42, Events: 4000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(cfg{Seed: 42, Events: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("fingerprint not deterministic: %s vs %s", a, b)
	}
	c, err := Fingerprint(cfg{Seed: 43, Events: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different configs share a fingerprint")
	}
	if _, err := Fingerprint(func() {}); err == nil {
		t.Error("unencodable config accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2" {
		t.Errorf("read %q, want v2", data)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want just the target", len(entries))
	}
}

func TestAtomicFileAbortLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileAtomic(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("partial new conten")); err != nil {
		t.Fatal(err)
	}
	f.Abort()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "old" {
		t.Errorf("abort clobbered the target: %q", data)
	}
	if err := f.Commit(); err == nil {
		t.Error("Commit after Abort succeeded")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after abort, want 1", len(entries))
	}
}

func TestDecodeJournalRejectsBadHeader(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"no newline":    `{"journal":"manet-sweep","v":1,"fp":"x"}`,
		"not json":      "garbage\n",
		"wrong magic":   `{"journal":"other","v":1,"fp":"x"}` + "\n",
		"wrong version": `{"journal":"manet-sweep","v":99,"fp":"x"}` + "\n",
		"no fp":         `{"journal":"manet-sweep","v":1,"fp":""}` + "\n",
	}
	for name, data := range cases {
		if _, _, _, err := DecodeJournal([]byte(data)); err == nil {
			t.Errorf("%s: header accepted", name)
		}
	}
}
