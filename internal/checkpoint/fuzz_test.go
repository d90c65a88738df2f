package checkpoint

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJournalDecode drives the tolerant journal loader with arbitrary
// bytes: it must never panic, the reported valid prefix must stay in
// bounds, and — the salvage property — decoding the valid prefix alone
// must reproduce exactly the same records. This is the code path that
// stands between a crash-damaged file and a resumed experiment, so it
// has to be total.
func FuzzJournalDecode(f *testing.F) {
	hdr, err := encodeHeader(journalMagic, "aabbccdd00112233")
	if err != nil {
		f.Fatal(err)
	}
	j := func(records ...Record) []byte {
		out := append([]byte(nil), hdr...)
		for _, r := range records {
			r.Sum = r.checksum()
			line, err := json.Marshal(r)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, append(line, '\n')...)
		}
		return out
	}
	f.Add([]byte(""))
	f.Add(hdr)
	f.Add(j(Record{Sweep: "fig1", Point: 0, Seed: 42, Result: []byte(`{"X":1.5}`)}))
	f.Add(j(
		Record{Sweep: "fig1", Point: 0, Seed: 42, Result: []byte(`{"X":1.5}`)},
		Record{Sweep: "fig2", Point: 3, Seed: 7, Result: []byte(`[1,2,3]`)},
	))
	full := j(Record{Sweep: "s", Point: 1, Seed: 1, Result: []byte(`0.30000000000000004`)})
	f.Add(full[:len(full)-7]) // torn tail
	f.Add([]byte("{\"journal\":\"manet-sweep\",\"v\":1,\"fp\":\"x\"}\nnot json\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fp, records, valid, err := DecodeJournal(data)
		if err != nil {
			return // unusable header: nothing decoded, nothing to check
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of bounds [0,%d]", valid, len(data))
		}
		if fp == "" {
			t.Fatal("nil error but empty fingerprint")
		}
		for i, r := range records {
			if r.Sum != r.checksum() {
				t.Fatalf("record %d survived with a bad checksum", i)
			}
			if r.Point < 0 || r.Result == nil {
				t.Fatalf("record %d survived validation: %+v", i, r)
			}
		}
		// Salvage property: the valid prefix is a self-contained journal
		// that decodes to the identical records.
		fp2, records2, valid2, err := DecodeJournal(data[:valid])
		if err != nil {
			t.Fatalf("valid prefix no longer decodes: %v", err)
		}
		if fp2 != fp || valid2 != valid || len(records2) != len(records) {
			t.Fatalf("prefix decode diverged: fp %s vs %s, valid %d vs %d, records %d vs %d",
				fp2, fp, valid2, valid, len(records2), len(records))
		}
		for i := range records {
			if records[i].Sweep != records2[i].Sweep || records[i].Point != records2[i].Point ||
				records[i].Seed != records2[i].Seed || !bytes.Equal(records[i].Result, records2[i].Result) {
				t.Fatalf("record %d changed across prefix re-decode", i)
			}
		}
	})
}

// FuzzJobLogDecode holds the job-log loader to the same contract as
// FuzzJournalDecode: total on arbitrary bytes, an in-bounds valid
// prefix, and a valid prefix that re-decodes to the identical records.
// It is the path a restarted daemon recovers its in-flight jobs from.
func FuzzJobLogDecode(f *testing.F) {
	hdr, err := encodeHeader(jobLogMagic, "")
	if err != nil {
		f.Fatal(err)
	}
	l := func(records ...JobRecord) []byte {
		out := append([]byte(nil), hdr...)
		for i, r := range records {
			r.Seq = i + 1
			r.Sum = r.checksum()
			line, err := json.Marshal(r)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, append(line, '\n')...)
		}
		return out
	}
	f.Add([]byte(""))
	f.Add(hdr)
	f.Add(l(JobRecord{ID: "j000001-aaaaaaaa", State: JobAccepted, Fingerprint: "aaaaaaaa",
		Spec: []byte(`{"kind":"measure","n":60}`)}))
	f.Add(l(
		JobRecord{ID: "j1", State: JobAccepted, Spec: []byte(`{}`)},
		JobRecord{ID: "j1", State: JobLeased, Note: "w1 points 0-3"},
		JobRecord{ID: "j1", State: JobFailed, Note: "deadline"},
	))
	full := l(JobRecord{ID: "j2", State: JobDone, Fingerprint: "bbbbbbbb"})
	f.Add(full[:len(full)-7]) // torn tail
	f.Add([]byte("{\"journal\":\"manet-jobs\",\"v\":1}\nnot json\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		records, valid, err := DecodeJobLog(data)
		if err != nil {
			return // unusable header: nothing decoded, nothing to check
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of bounds [0,%d]", valid, len(data))
		}
		for i, r := range records {
			if r.Sum != r.checksum() {
				t.Fatalf("record %d survived with a bad checksum", i)
			}
			if r.Seq <= 0 || r.ID == "" || r.State == "" {
				t.Fatalf("record %d survived validation: %+v", i, r)
			}
		}
		records2, valid2, err := DecodeJobLog(data[:valid])
		if err != nil {
			t.Fatalf("valid prefix no longer decodes: %v", err)
		}
		if valid2 != valid || len(records2) != len(records) {
			t.Fatalf("prefix decode diverged: valid %d vs %d, records %d vs %d",
				valid2, valid, len(records2), len(records))
		}
		for i := range records {
			a, b := records[i], records2[i]
			if a.Seq != b.Seq || a.ID != b.ID || a.State != b.State || a.Fingerprint != b.Fingerprint ||
				a.Note != b.Note || a.Sum != b.Sum || !bytes.Equal(a.Spec, b.Spec) {
				t.Fatalf("record %d changed across prefix re-decode", i)
			}
		}
	})
}
