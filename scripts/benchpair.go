//go:build ignore

// Command benchpair compares the benchmark of record (perfbench) between
// a base commit and HEAD with paired, alternating runs. It clones both
// commits from the repository into sibling directories, so both builds
// see the same kind of checkout, then runs perfbench/run.sh k times on
// each side for BENCHMARK.json's run_seconds, alternating which side
// goes first; pair i uses seed i on both sides. It prints, per metric,
// the median of each side, the parent's interquartile range, the
// change/parent ratio of the medians and the number of pairs in which
// the change was better (directions come from BENCHMARK.json; metrics
// it does not list count lower as better). Below that table it lists
// each pair's parent and change value of every end_to_end metric in
// BENCHMARK.json, so a claim can be checked pair by pair.
//
// Run from the repository root (or use make bench-pair BASE=<rev>
// W=<workload>):
//
//	go run scripts/benchpair.go -base <rev> -workload lossy_churn [-k 5]
//
// Only committed code is measured: uncommitted edits in the working
// tree are not in either clone. The clones and their build caches stay
// under .bench_pair/ until the next run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "parent commit (required)")
	workload := flag.String("workload", "", "perfbench workload (required)")
	k := flag.Int("k", 5, "runs per side")
	flag.Parse()
	if *base == "" || *workload == "" || *k < 1 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/benchpair.go -base <rev> -workload <name> [-k 5]")
		os.Exit(2)
	}
	if err := run(*base, *workload, *k); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", append([]string{"-C", dir}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

func run(base, workload string, k int) error {
	root, err := git(".", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	spec, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	seconds := strconv.FormatFloat(spec.RunSeconds, 'g', -1, 64)
	sides := []struct{ name, rev, dir string }{{name: "parent", rev: base}, {name: "change", rev: "HEAD"}}
	work := filepath.Join(root, ".bench_pair")
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	for i := range sides {
		s := &sides[i]
		if s.rev, err = git(root, "rev-parse", "--verify", s.rev+"^{commit}"); err != nil {
			return fmt.Errorf("%s %q is not a commit", s.name, s.rev)
		}
		s.dir = filepath.Join(work, s.name)
		if _, err := git(root, "clone", "-q", "--no-checkout", root, s.dir); err != nil {
			return err
		}
		if _, err := git(s.dir, "checkout", "-q", "--detach", s.rev); err != nil {
			return err
		}
	}
	if dirty, _ := git(root, "status", "--porcelain", "--untracked-files=no"); dirty != "" {
		fmt.Fprintln(os.Stderr, "benchpair: the working tree has uncommitted changes; they are not measured")
	}
	runs := make([][]result, len(sides))
	for i := 0; i < k; i++ {
		for j := range sides {
			side := (i + j) % 2 // alternate which side goes first
			s := sides[side]
			seed := strconv.Itoa(i + 1)
			fmt.Fprintf(os.Stderr, "benchpair: pair %d/%d, %s (%.10s), seed %s\n", i+1, k, s.name, s.rev, seed)
			res, err := bench(s.dir, workload, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", s.name, i+1, err)
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Fprintf(os.Stderr, "benchpair: %s run %d: correct=%v, %d of %d ops failed\n",
					s.name, i+1, res.Correct, res.Failed, res.Attempted)
			}
			runs[side] = append(runs[side], res)
		}
	}
	report(workload, k, sides[0].rev, sides[1].rev, runs[0], runs[1], spec.better())
	listPairs(runs[0], runs[1], spec.EndToEnd)
	return nil
}

// bench runs perfbench once in dir and decodes its last output line.
func bench(dir, workload, seed, seconds string) (result, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("decode result line: %w", err)
	}
	return res, nil
}

// benchSpec is the part of BENCHMARK.json benchpair uses: the run
// length and which way each metric is better.
type benchSpec struct {
	RunSeconds float64                         `json:"run_seconds"`
	EndToEnd   []struct{ Name, Better string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Better string } `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	if !(spec.RunSeconds > 0) {
		return spec, fmt.Errorf("%s: run_seconds must be positive", path)
	}
	return spec, nil
}

// better maps each metric name to "lower" or "higher".
func (s benchSpec) better() map[string]string {
	better := map[string]string{}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		better[m.Name] = m.Better
	}
	return better
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func report(workload string, k int, baseRev, rev string, parent, change []result, better map[string]string) {
	names := map[string]string{}
	for _, rs := range [][]result{parent, change} {
		for _, r := range rs {
			for name, m := range r.Metrics {
				names[name] = m.Unit
			}
		}
	}
	keys := make([]string, 0, len(names))
	for name := range names {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	fmt.Printf("workload %s, %d pairs, parent %.10s, change %.10s\n", workload, k, baseRev, rev)
	fmt.Printf("%-34s %-10s %12s %12s %12s %9s %7s\n", "metric", "unit", "parent", "parent IQR", "change", "ch/parent", "better")
	for _, name := range keys {
		var p, c []float64
		wins := 0
		for i := 0; i < k; i++ {
			pm, pok := parent[i].Metrics[name]
			cm, cok := change[i].Metrics[name]
			if !pok || !cok {
				continue
			}
			p, c = append(p, pm.Value), append(c, cm.Value)
			if (better[name] == "higher" && cm.Value > pm.Value) || (better[name] != "higher" && cm.Value < pm.Value) {
				wins++
			}
		}
		if len(p) == 0 {
			continue
		}
		sort.Float64s(p)
		sort.Float64s(c)
		mp, mc := quantile(p, 0.5), quantile(c, 0.5)
		ratio := "-"
		if mp != 0 {
			ratio = fmt.Sprintf("%.3f", mc/mp)
		}
		fmt.Printf("%-34s %-10s %12.4g %12.4g %12.4g %9s %4d/%d\n",
			name, names[name], mp, quantile(p, 0.75)-quantile(p, 0.25), mc, ratio, wins, len(p))
	}
}

// listPairs prints, for every end_to_end metric, each pair's parent and
// change value and their ratio, in pair order (pair i ran seed i).
func listPairs(parent, change []result, endToEnd []struct{ Name, Better string }) {
	fmt.Printf("\nend-to-end metrics per pair\n")
	fmt.Printf("%-34s %4s %12s %12s %9s\n", "metric", "pair", "parent", "change", "ch/parent")
	for _, m := range endToEnd {
		for i := range parent {
			pm, pok := parent[i].Metrics[m.Name]
			cm, cok := change[i].Metrics[m.Name]
			if !pok || !cok {
				continue
			}
			ratio := "-"
			if pm.Value != 0 {
				ratio = fmt.Sprintf("%.3f", cm.Value/pm.Value)
			}
			fmt.Printf("%-34s %4d %12.4g %12.4g %9s\n", m.Name, i+1, pm.Value, cm.Value, ratio)
		}
	}
}
