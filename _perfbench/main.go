// Command perfbench is the repository's benchmark: three workloads run
// against the public API of the transput engine, each printing its
// end-to-end metrics (untraced) or its per-layer metrics (traced),
// with correctness gates checked inside every run.
//
//	go run . --workload paper-b1 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics.  The exit status is non-zero when a
// gate fails.  See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runLimit bounds one workload run; a run that has not finished by
// then is reported as failed.
const runLimit = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "paper-b1, wire-uds, gateway-churn or all")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	secs := flag.Int("seconds", 10, "timed length of one run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run: per-layer metrics, spans and the ladder")
	outDir := flag.String("out", ".", "directory for span files")
	commit := flag.String("commit", "unknown", "commit being measured, for the run stamp")
	flag.Parse()
	if *workload == "" || *secs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := runOpts{seed: *seed, length: time.Duration(*secs) * time.Second, trace: *trace == 1, outDir: *outDir}
	if o.trace {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{paperB1.name, wireUDS.name, gatewayName}
	}

	out := bufio.NewWriter(os.Stdout)
	st := newStamp(o, *commit)
	var results []*result
	for _, name := range names {
		watchdog := time.AfterFunc(runLimit, func() {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", name, runLimit)
			os.Exit(3)
		})
		steal0 := hostStealMs()
		r, err := runWorkload(name, o)
		watchdog.Stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		if steal0 >= 0 {
			r.counts["host_steal_ms"] = hostStealMs() - steal0
		}
		results = append(results, r)
		printResult(out, r, st, o.trace)
	}

	final := map[string]any{}
	metrics := map[string]any{}
	correct := true
	var attempted, failed int64
	defs := e2eDefs
	if o.trace {
		defs = layerDefs()
	}
	for _, r := range results {
		correct = correct && r.correct()
		attempted += r.attempted
		failed += r.failed
		vals := r.e2e
		if o.trace {
			vals = r.layer
		}
		for _, d := range defs {
			key := d.Name
			if len(results) > 1 {
				key = r.workload + "." + d.Name
			}
			metrics[key] = map[string]any{"value": vals[d.Name], "unit": d.Unit}
		}
	}
	final["correct"] = correct
	final["attempted"] = attempted
	final["failed"] = failed
	final["metrics"] = metrics
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// stamp records where and on what a run was measured.
type stamp struct {
	GOMAXPROCS   int              `json:"gomaxprocs"`
	NProc        int              `json:"nproc"`
	CPUModel     string           `json:"cpu_model"`
	GoVersion    string           `json:"go_version"`
	Commit       string           `json:"commit"`
	SourceSHA256 string           `json:"source_sha256"`
	Seed         uint64           `json:"seed"`
	TimedSeconds float64          `json:"timed_seconds"`
	Trace        bool             `json:"trace"`
	Workload     string           `json:"workload,omitempty"`
	Counts       map[string]int64 `json:"counts,omitempty"`
	SpanFile     string           `json:"span_file,omitempty"`
}

func newStamp(o runOpts, commit string) stamp {
	return stamp{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       commit,
		SourceSHA256: sourceDigest("."),
		Seed:         o.seed,
		TimedSeconds: o.length.Seconds(),
		Trace:        o.trace,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostStealMs reads the time the hypervisor has kept this VM's CPUs
// from running it (the steal column of /proc/stat, in 10 ms ticks), or
// -1 where it is not available.  Latency tails follow it closely on a
// shared host, so the stamp records it.
func hostStealMs() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return ticks * 10
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// hidden directories), so a stamp names the code that ran even where
// no git metadata exists.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not belong to the build
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type gateSummary struct {
	runs, failed int
	detail       string
}

func printResult(w io.Writer, r *result, st stamp, traced bool) {
	st.Workload = r.workload
	st.Counts = r.counts
	st.SpanFile = r.spanFile
	sb, _ := json.Marshal(st) // a struct of plain fields always marshals
	fmt.Fprintf(w, "# %s stamp %s\n", r.workload, sb)
	// A gate is checked once per set-up; print each name once, with
	// the first failure's detail if any, else the last detail.
	var order []string
	byName := map[string]*gateSummary{}
	for _, g := range r.gates {
		s := byName[g.name]
		if s == nil {
			s = &gateSummary{}
			byName[g.name] = s
			order = append(order, g.name)
		}
		s.runs++
		if !g.ok && s.failed == 0 {
			s.detail = g.detail
		}
		if !g.ok {
			s.failed++
		} else if s.failed == 0 {
			s.detail = g.detail
		}
	}
	for _, name := range order {
		s := byName[name]
		status := "ok"
		if s.failed > 0 {
			status = "FAIL"
		}
		fmt.Fprintf(w, "# %s gate %-24s %-4s %d/%d  %s\n", r.workload, name, status, s.runs-s.failed, s.runs, s.detail)
	}
	defs, vals := append(append([]metricDef(nil), e2eDefs...), e2eExtraDefs...), r.e2e
	if traced {
		defs, vals = append(layerDefs(), metricDef{"error_ratio", "ratio"}), r.layer
		vals["error_ratio"] = r.e2e["error_ratio"]
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-14s %-44s %16.4f %s\n", r.workload, d.Name, vals[d.Name], d.Unit)
	}
}
