// Command ruidbench regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md): run it with no arguments for the full
// suite, or name experiment ids to run a subset.
//
// Usage:
//
//	ruidbench [-list] [-json] [-io-json [-io-scale N] [-io-samples N]] [E1 E2 E3 ...]
//
// With -json the command instead measures the identifier hot paths (joins,
// RParent, axis generation; interface path vs concrete fast path) and
// prints machine-readable results — the format committed as
// BENCH_baseline.json. With -io-json it runs only the out-of-core I/O
// measurement (experiment E17) at a caller-chosen scale and prints the
// io/* rows — the mode the CI I/O smoke asserts against.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/workload"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonOut := flag.Bool("json", false, "run the hot-path microbenchmarks and print JSON")
	ioJSON := flag.Bool("io-json", false, "run only the out-of-core I/O measurement (E17) and print its io/* rows as JSON")
	ioScale := flag.Int("io-scale", defaultIONodes, "approximate element count for -io-json")
	ioSamples := flag.Int("io-samples", defaultIOSamples, "sampled ancestor chains for -io-json")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ruidbench [-list] [-json] [-io-json [-io-scale N] [-io-samples N]] [experiment ids...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *ioJSON {
		if err := writeJSON(os.Stdout, ioRows(*ioScale, *ioSamples)); err != nil {
			fmt.Fprintf(os.Stderr, "ruidbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		if err := runMicrobench(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ruidbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	experiments := workload.Experiments()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	want := map[string]bool{}
	for _, arg := range flag.Args() {
		want[strings.ToUpper(arg)] = true
	}
	ran := 0
	for _, e := range experiments {
		id := strings.ToUpper(e.ID)
		if len(want) > 0 && !want[id] && !want[strings.TrimRight(id, "ABCD")] {
			continue
		}
		if err := e.Build().Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ruidbench: %v\n", err)
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "ruidbench: no experiment matches %v (try -list)\n", flag.Args())
		os.Exit(2)
	}
}
