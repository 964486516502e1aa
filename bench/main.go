// Command bench is the repository's end-to-end benchmark: one process, the
// query server built as cmd/ruidd builds it and driven in process through
// its HTTP handler by a single closed-loop client, plus a child process
// that runs the reference kernel the times are scaled by. README.md explains
// the workloads and metrics; BENCHMARK.json at the repository root is the
// contract the numbers are gated on.
//
//	go run -C bench repro/bench -workload read_join -seed 1 [-seconds 20] [-trace 1]
//	go run -C bench repro/bench -all
//	go run -C bench repro/bench -agree 10
//
// A run prints an "env" record (host, toolchain, seed, sizes) and then, as
// the last line of standard output, one JSON object: correct, attempted,
// failed, and the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). It exits non-zero when any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
)

const defaultSeconds = 20

func main() {
	if os.Getenv(refChildEnv) != "" {
		refChildMain()
		return
	}
	workload := flag.String("workload", "", "workload to run: read_join, read_point, write_area or mixed_rw")
	seed := flag.Int64("seed", 1, "seed of the document and of every op sequence")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured section")
	trace := flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics and writes out/trace-<workload>.json")
	all := flag.Bool("all", false, "run every workload untraced and traced; print every metric as one JSON line")
	agree := flag.Int("agree", 0, "run two interleaved sets of N runs per workload and compare their medians (N >= 5)")
	flag.Parse()

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, scale: defaultScale, traced: *trace != 0, outDir: "out"}
	var err error
	switch {
	case *agree > 0:
		err = runAgree(cfg, *agree)
	case *all:
		err = runAll(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne executes one workload and prints its env record and result.
func runOne(cfg config) error {
	res, env, err := execute(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(env); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", cfg.workload, res.Failed, res.Attempted)
	}
	return nil
}

// runAll prints every metric of every workload by name, one JSON line each.
func runAll(cfg config) error {
	enc := json.NewEncoder(os.Stdout)
	failed := 0
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg.workload, cfg.traced = w, traced
			res, env, err := execute(cfg)
			if err != nil {
				return err
			}
			if err := enc.Encode(env); err != nil {
				return err
			}
			names := make([]string, 0, len(res.Metrics))
			for name := range res.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := res.Metrics[name]
				line := map[string]any{"workload": w, "metric": name, "value": m.Value, "unit": m.Unit}
				if err := enc.Encode(line); err != nil {
					return err
				}
			}
			failed += res.Failed
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// execute runs one workload to completion and returns its result together
// with the env record that says where and on what it was measured.
func execute(cfg config) (result, map[string]any, error) {
	if !slices.Contains(workloadNames, cfg.workload) {
		return result{}, nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if cfg.seconds <= 0 {
		return result{}, nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, nil, err
	}
	ref, err := startReference()
	if err != nil {
		return result{}, nil, err
	}
	r := newRun(cfg, ref)
	if err = r.generate(); err == nil {
		if cfg.traced {
			err = r.runTraced()
		} else {
			err = r.runPlain()
		}
	}
	r.stopServer() // before the result is drawn up: a failed Close counts
	if refErr := ref.stop(); err == nil {
		err = refErr
	}
	if err != nil {
		return result{}, nil, err
	}
	res := result{
		Attempted: int(r.attempted.Load()),
		Failed:    int(r.failed.Load()),
		Metrics:   r.metrics,
	}
	res.Correct = res.Failed == 0
	env := map[string]any{
		"record":     "env",
		"workload":   cfg.workload,
		"traced":     cfg.traced,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"scale":      cfg.scale,
		"nodes":      r.baseNodes,
		"doc_bytes":  len(r.src),
		"wal_sync":   walSync,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"counts":     r.counts,
		"raw":        r.raw,
	}
	return res, env, nil
}

// commit is the VCS revision the binary was built from, when the toolchain
// stamped one (it does not under `go run` outside a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
