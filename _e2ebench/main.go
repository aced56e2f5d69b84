// Command e2ebench is the end-to-end, per-layer benchmark of the nde-serve
// debugging loop. It drives internal/serve's handler in process through
// register → importance → what-if → cleaning on seeded workloads, checks
// every reply against an oracle outside the timed window, and prints one
// JSON result line last. See README.md for the workloads and metrics.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash _e2ebench/run.sh --workload debug-20k --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	root := flag.String("root", ".", "checkout root; traces go to <root>/.bench_build/traces")
	flag.Parse()

	mk, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload {%s}, --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	printHeader(*workload, *seed, *trace)
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traceDir: filepath.Join(*root, ".bench_build", "traces")}
	var res *output
	var err error
	if *trace == 1 {
		res, err = runTraced(mk, cfg)
	} else {
		res, err = runTimed(mk, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runConfig carries the command-line settings into a run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traceDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line: the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printHeader records the measured facts a result depends on.
func printHeader(workload string, seed int64, trace int) {
	h := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go":         runtime.Version(),
		"git_sha":    gitSHA(),
	}
	b, _ := json.Marshal(h) // a map of plain values always marshals
	fmt.Println("# header", string(b))
}

// gitSHA is the VCS revision stamped into the binary, or "unknown" when
// it was built outside a git work tree (the benchmark's checkout need not
// be one).
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
