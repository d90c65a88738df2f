package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

func TestRunSmallScenario(t *testing.T) {
	var out strings.Builder
	args := []string{"-n", "100", "-events", "1500"}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mean degree d", "f_hello", "f_cluster", "f_route", "head ratio P"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunPolicyAndMobilityVariants(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "80", "-events", "800", "-policy", "hcc"},
		{"-n", "80", "-events", "800", "-policy", "dmac"},
		{"-n", "80", "-events", "800", "-mobility", "bcv"},
		{"-n", "80", "-events", "800", "-metric", "torus"},
		{"-n", "80", "-events", "800", "-border"},
	} {
		var out strings.Builder
		if err := run(context.Background(), args, &out); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-policy", "nope"},
		{"-mobility", "nope"},
		{"-metric", "nope"},
		{"-n", "0"},
		// Non-finite scenario parameters must fail validation up front
		// (NaN passes every ordered comparison), not panic mid-run.
		{"-r", "NaN"},
		{"-r", "+Inf"},
		{"-v", "NaN"},
		{"-density", "NaN"},
		// Malformed fault-injection flags.
		{"-loss", "1.5"},
		{"-loss", "NaN"},
		{"-loss", "-0.1"},
		{"-churn", "bogus"},
		{"-churn", "10"},
		{"-churn", "0:40"},
	} {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%v panicked: %v", args, r)
					err = nil
				}
			}()
			return run(context.Background(), args, &out)
		}()
		if err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunFaultInjection(t *testing.T) {
	var out strings.Builder
	args := []string{"-n", "80", "-events", "800", "-loss", "0.2", "-churn", "300:30"}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fault injection", "hardened stack", "f_cluster",
		"delivery drop rate", "time-to-repair mean", "violated-node fraction",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fault-injection output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunWritesTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	var out strings.Builder
	if err := run(context.Background(), []string{"-n", "60", "-events", "500", "-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || !strings.HasPrefix(string(data), `{"t":`) {
		t.Errorf("trace file malformed: %q...", string(data[:min(40, len(data))]))
	}
}

// TestTraceFollowsMobilityFlag checks that -trace simulates the model
// -mobility selects: the same scenario traced under BCV and under
// epoch-RWP must produce different event logs.
func TestTraceFollowsMobilityFlag(t *testing.T) {
	dir := t.TempDir()
	traces := map[string][]byte{}
	for _, mob := range []string{"bcv", "epoch-rwp"} {
		path := filepath.Join(dir, mob+".jsonl")
		var out strings.Builder
		if err := run(context.Background(), []string{"-n", "60", "-events", "500", "-mobility", mob, "-trace", path}, &out); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		traces[mob] = data
	}
	if bytes.Equal(traces["bcv"], traces["epoch-rwp"]) {
		t.Error("-mobility bcv and -mobility epoch-rwp wrote identical traces")
	}
}

// TestStaticTraceWritesRecords checks that -trace runs ticks on a
// static scenario: a zero speed takes the unit tick of every
// measurement driver, so the 20-time-unit run is 20 ticks, not none.
func TestStaticTraceWritesRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "static.jsonl")
	if err := run(context.Background(), []string{"-n", "50", "-v", "0", "-events", "300", "-trace", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines == 0 {
		t.Error("-v 0 -trace wrote no records")
	}
}

// TestTraceGolden pins the bytes of the trace at the default scenario
// flags. -events sizes only the measurement window, not the trace, so
// it is lowered to keep the test short.
func TestTraceGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "default.jsonl")
	if err := run(context.Background(), []string{"-events", "300", "-trace", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got, want := hex.EncodeToString(sum[:]), "3b73865c8db5f9d92345f62fa3832602026c0b619b3d145b2833f5329ec89165"; got != want {
		t.Errorf("default-flag trace sha256 = %s, want %s", got, want)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestScenarioFingerprintGolden pins the checkpoint fingerprint of two
// canonical scenarios: the default flag set, and the journal header a
// real run writes. Journals written by earlier builds must keep
// resuming, so any change to scenarioFingerprint's fields or to the
// flag wiring that feeds it fails here.
func TestScenarioFingerprintGolden(t *testing.T) {
	fp, err := checkpoint.Fingerprint(scenarioFingerprint{
		Tool: "manetsim", N: 400, R: 1.5, V: 0.05, Density: 4,
		Policy: "lid", Mob: "epoch-rwp", Metric: "square",
		Seed: 42, Events: 40_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "0a04d691c3e062c3"; fp != want {
		t.Errorf("default-flag fingerprint = %s, want %s", fp, want)
	}

	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := run(context.Background(), []string{"-n", "80", "-events", "800", "-checkpoint", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fp, _, _, err = checkpoint.DecodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := "a81f0397b3c9cb94"; fp != want {
		t.Errorf("journal header fingerprint = %s, want %s", fp, want)
	}
}
