// Command benchab is the repository benchmark's A/B comparison: it runs
// the benchmark's end-to-end command, bash bench/run.sh --workload W --seed
// S --seconds T --trace 0 with T BENCHMARK.json's run_seconds, the same on
// both sides, in a checkout of a base revision and in the working tree, one
// pair per seed, alternating which side runs first, and judges every
// end-to-end metric of BENCHMARK.json on the pairs.
//
// For each workload and metric it prints both sides' median and quartiles,
// the change's pair wins, whether every pair read identical values (every
// sim_* metric should), whether the change claims a gain (at least nine
// tenths of the pairs won, and the medians apart by more than the base's
// interquartile range) and the metric's bound verdict: ok, worse (the
// change's median is worse than the base's by more than BENCHMARK.json's
// bound) or unresolved (the base's own spread is wider than the bound). It
// writes the runs and verdicts to one JSON file and exits 1 when a bound is
// broken or the change fails a larger share of operations.
//
// The base is checked out with git worktree under a temporary directory,
// removed when the command ends. Nothing is written under bench/ or to
// BENCHMARK.json: each tree's run.sh builds into that tree's own
// .bench_build/.
//
// Usage, from anywhere in the repository:
//
//	go run ./cmd/benchab -base HEAD~1 -workloads p2p_paper -seeds 1-10 -out ab.json
//
// An A/A run is the base against itself: run the command in a checkout of
// the base revision with -base HEAD.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json the comparison reads.
type manifest struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// record is the JSON file the command writes.
type record struct {
	Base      string           `json:"base"` // the revision as given, and the commit it named
	Change    string           `json:"change"`
	Dirty     bool             `json:"change_has_uncommitted_edits"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
	Violated  bool             `json:"bound_violated"`
}

func main() {
	base := flag.String("base", "", "the revision to compare the working tree against (required)")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
	seedList := flag.String("seeds", "1-10", "the seeds, one pair each: a list (1,3,5), a range (1-10) or both")
	out := flag.String("out", "benchab.json", "the JSON file to write")
	flag.Parse()
	if *base == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchab -base REV [-workloads a,b] [-seeds 1-10] [-out file.json]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	violated, err := run(ctx, *base, *workloads, *seedList, *out)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(2)
	}
	if violated {
		os.Exit(1)
	}
}

func run(ctx context.Context, baseRev, workloads, seedList, out string) (bool, error) {
	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	if abs, err := filepath.Abs(out); err != nil || strings.HasPrefix(abs, filepath.Join(root, "bench")+string(filepath.Separator)) {
		return false, fmt.Errorf("-out %s: not a path outside bench/", out)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	names := strings.Split(workloads, ",")
	if workloads == "" {
		names = names[:0]
		for _, w := range m.Workloads {
			names = append(names, w.Name)
		}
	}
	seeds, err := parseSeeds(seedList)
	if err != nil {
		return false, err
	}
	rec := record{Seconds: m.RunSeconds}
	baseCommit, err := git(ctx, root, "rev-parse", "--verify", baseRev+"^{commit}")
	if err != nil {
		return false, err
	}
	rec.Base = baseRev + " " + baseCommit
	if rec.Change, err = git(ctx, root, "rev-parse", "HEAD"); err != nil {
		return false, err
	}
	status, err := git(ctx, root, "status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return false, err
	}
	rec.Dirty = status != ""

	tmp, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	baseTree := filepath.Join(tmp, "base")
	if _, err := git(ctx, root, "worktree", "add", "--detach", baseTree, baseCommit); err != nil {
		return false, err
	}
	// The worktree goes away even when the context was cancelled.
	defer git(context.Background(), root, "worktree", "remove", "--force", baseTree)

	for _, name := range names {
		var baseRes, chgRes []result
		var baseFirst []bool
		for i, seed := range seeds {
			first := i%2 == 0
			order := []string{root, baseTree}
			if first {
				order[0], order[1] = baseTree, root
			}
			var got [2]result
			for k, tree := range order {
				r, err := bench(ctx, tree, name, seed, m.RunSeconds)
				if err != nil {
					return false, err
				}
				got[k] = r
			}
			if !first {
				got[0], got[1] = got[1], got[0]
			}
			baseRes, chgRes, baseFirst = append(baseRes, got[0]), append(chgRes, got[1]), append(baseFirst, first)
			fmt.Fprintf(os.Stderr, "benchab: %s seed %d: host_s base %.4g change %.4g\n",
				name, seed, got[0].Metrics["host_s"].Value, got[1].Metrics["host_s"].Value)
		}
		w, err := report(name, seeds, baseFirst, m.EndToEnd, baseRes, chgRes)
		if err != nil {
			return false, err
		}
		rec.Workloads = append(rec.Workloads, w)
		rec.Violated = rec.Violated || w.violated()
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "base %s, change %s (uncommitted edits: %t), --seconds %g\n", rec.Base, rec.Change, rec.Dirty, m.RunSeconds)
	for _, w := range rec.Workloads {
		w.table(&sb)
	}
	fmt.Fprintf(&sb, "bound violated: %t; written to %s\n", rec.Violated, out)
	fmt.Print(sb.String())
	js, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return false, err
	}
	return rec.Violated, os.WriteFile(out, append(js, '\n'), 0o644)
}

// bench runs the benchmark's command once in tree and parses its result.
func bench(ctx context.Context, tree, workload string, seed int64, seconds float64) (result, error) {
	cmd := exec.CommandContext(ctx, "bash", "bench/run.sh", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = tree
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %s seed %d: %v\n%s", tree, workload, seed, err, stderr.String())
	}
	r, err := parseResult(string(stdout))
	if err != nil {
		return r, fmt.Errorf("%s: %s seed %d: %v", tree, workload, seed, err)
	}
	return r, nil
}

// git runs one git command in dir and returns its trimmed output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return strings.TrimSpace(string(out)), nil
}

// parseSeeds reads "1-10", "1,3,5" or a mix of the two.
func parseSeeds(s string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		b := a
		if err == nil && isRange {
			b, err = strconv.ParseInt(hi, 10, 64)
		}
		if err != nil || b < a {
			return nil, fmt.Errorf("-seeds %q: want a list or range of integers such as 1-10", s)
		}
		for x := a; x <= b; x++ {
			seeds = append(seeds, x)
		}
	}
	return seeds, nil
}
