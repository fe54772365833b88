// Command benchjson converts `go test -bench` text output into
// machine-readable JSON, so CI can track the performance trajectory across
// PRs without scraping free-form benchmark text.
//
// Usage:
//
//	go test -bench=. -run xxx ./... | benchjson > BENCH_results.json
//	benchjson -commit "$(git rev-parse HEAD)" bench.txt > BENCH_results.json
//	go test -bench=... -count=3 ./... | benchjson -compare BENCH_results.json -tolerance 0.5
//
// The output records the machine the numbers came from — the goos, goarch
// and cpu header lines go test prints, GOMAXPROCS from the benchmark names'
// -N suffix, the Go version benchjson was built with and the optional
// -commit — and maps each benchmark (name with the -N suffix stripped) to its
// ns/op plus, when present, B/op and allocs/op:
//
//	{
//	  "machine": {"goos": "linux", "goarch": "amd64", "cpu": "...", "gomaxprocs": 8, "go_version": "go1.24.0"},
//	  "benchmarks": [
//	    {"name": "BenchmarkBatchAnalyze/batch", "ns_per_op": 3563078, ...}
//	  ]
//	}
//
// Lines that are not benchmark results (headers, PASS/ok, failures) are
// ignored; a benchmark that appears several times (e.g. -count>1) keeps one
// entry per occurrence, preserving input order. Input with zero parseable
// benchmark lines is an error — an empty run must not silently produce an
// empty (or trivially passing) result.
//
// With -compare, instead of emitting JSON the current results are checked
// against a committed baseline: for every benchmark present in both (taking
// the minimum over repeated runs, so -count=3 noise collapses to the best
// observation), the ns/op, B/op and allocs/op deltas are printed and the
// exit status is non-zero if any ns/op or allocs/op regression exceeds
// -tolerance (a fraction: 0.25 allows +25%). Benchmarks only in the baseline
// are skipped — CI gates on a stable subset, not the full suite. The
// machine object plays no part in the comparison.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// Machine describes where a benchmark run was recorded.
type Machine struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GOMAXPROCS is read off the benchmark names' -N suffix (no suffix means
	// 1); it is omitted when lines disagree, as under a -cpu list.
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	Commit     string `json:"commit,omitempty"`
}

type output struct {
	Machine    *Machine `json:"machine,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	compare := fs.String("compare", "", "baseline BENCH_results.json to compare against instead of emitting JSON")
	tolerance := fs.Float64("tolerance", 0.25, "allowed fractional ns/op and allocs/op regression vs -compare baseline")
	commit := fs.String("commit", "", "source commit the benchmarks were run at, recorded in the machine object")
	const usage = "usage: benchjson [-commit rev] [-compare baseline.json [-tolerance 0.25]] [bench.txt]"
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%s: %w", usage, err)
	}
	rest := fs.Args()
	in := stdin
	if len(rest) > 1 {
		return errors.New(usage)
	}
	if len(rest) == 1 {
		f, err := os.Open(rest[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	out, err := parse(in)
	if err != nil {
		return err
	}
	if len(out.Benchmarks) == 0 {
		return errors.New("no benchmark lines in input (did the bench run actually execute?)")
	}
	if *compare != "" {
		base, err := readBaseline(*compare)
		if err != nil {
			return err
		}
		return compareResults(stdout, base, out, *tolerance)
	}
	out.Machine.GoVersion = runtime.Version()
	out.Machine.Commit = *commit
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func parse(in io.Reader) (*output, error) {
	m := &Machine{}
	out := &output{Machine: m, Benchmarks: []Result{}}
	procs := -1 // GOMAXPROCS of the lines so far: -1 none yet, 0 disagreeing
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		for _, h := range []struct {
			prefix string
			field  *string
		}{{"goos:", &m.GOOS}, {"goarch:", &m.GOARCH}, {"cpu:", &m.CPU}} {
			if v, ok := strings.CutPrefix(line, h.prefix); ok && *h.field == "" {
				*h.field = strings.TrimSpace(v)
			}
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "Benchmark... --- FAIL" lines
		}
		name, n := splitCPUSuffix(fields[0])
		if procs == -1 {
			procs = n
		} else if procs != n {
			procs = 0
		}
		r := Result{Name: name, Iterations: iters}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			val := fields[i]
			switch fields[i+1] {
			case "ns/op":
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op %q for %s", val, r.Name)
				}
				r.NsPerOp = v
				seen = true
			case "B/op":
				if v, err := strconv.ParseInt(val, 10, 64); err == nil {
					r.BytesPerOp = &v
				}
			case "allocs/op":
				if v, err := strconv.ParseInt(val, 10, 64); err == nil {
					r.AllocsPerOp = &v
				}
			}
		}
		if seen {
			out.Benchmarks = append(out.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	m.GOMAXPROCS = max(procs, 0)
	return out, nil
}

// splitCPUSuffix splits off the trailing "-N" GOMAXPROCS marker go test
// appends to benchmark names, so results are keyed stably across machines,
// and returns N (go test omits the suffix when GOMAXPROCS is 1).
func splitCPUSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], n
}

// readBaseline loads a committed BENCH_results.json.
func readBaseline(path string) (*output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base output
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return nil, fmt.Errorf("baseline %s has no benchmarks", path)
	}
	return &base, nil
}

// reduce collapses repeated runs of the same benchmark (-count>1) to the
// minimum per metric — the least-noisy observation of the true cost.
func reduce(out *output) map[string]Result {
	m := make(map[string]Result, len(out.Benchmarks))
	for _, r := range out.Benchmarks {
		prev, ok := m[r.Name]
		if !ok {
			m[r.Name] = r
			continue
		}
		if r.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = r.NsPerOp
		}
		prev.BytesPerOp = minPtr(prev.BytesPerOp, r.BytesPerOp)
		prev.AllocsPerOp = minPtr(prev.AllocsPerOp, r.AllocsPerOp)
		m[r.Name] = prev
	}
	return m
}

func minPtr(a, b *int64) *int64 {
	if a == nil {
		return b
	}
	if b == nil || *a <= *b {
		return a
	}
	return b
}

// compareResults prints per-benchmark deltas of current vs base and returns
// an error if any shared benchmark's ns/op or allocs/op regressed by more
// than tolerance. B/op is reported but never gates: byte sizes shift with
// map growth thresholds across Go versions and are not what the gate
// protects (latency and allocation count are).
func compareResults(w io.Writer, base, current *output, tolerance float64) error {
	if tolerance < 0 {
		return fmt.Errorf("tolerance %v must be >= 0", tolerance)
	}
	baseline := reduce(base)
	cur := reduce(current)
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	compared := 0
	for _, name := range names {
		c := cur[name]
		b, ok := baseline[name]
		if !ok {
			fmt.Fprintf(w, "%-60s  new (no baseline): %s ns/op\n", name, fmtNs(c.NsPerOp))
			continue
		}
		compared++
		nsDelta := delta(c.NsPerOp, b.NsPerOp)
		line := fmt.Sprintf("%-60s  ns/op %s -> %s (%+.1f%%)", name, fmtNs(b.NsPerOp), fmtNs(c.NsPerOp), 100*nsDelta)
		if b.BytesPerOp != nil && c.BytesPerOp != nil {
			line += fmt.Sprintf("  B/op %d -> %d (%+.1f%%)", *b.BytesPerOp, *c.BytesPerOp, 100*delta(float64(*c.BytesPerOp), float64(*b.BytesPerOp)))
		}
		allocsFail := false
		if b.AllocsPerOp != nil && c.AllocsPerOp != nil {
			allocsDelta := delta(float64(*c.AllocsPerOp), float64(*b.AllocsPerOp))
			line += fmt.Sprintf("  allocs/op %d -> %d (%+.1f%%)", *b.AllocsPerOp, *c.AllocsPerOp, 100*allocsDelta)
			allocsFail = allocsDelta > tolerance
		}
		if nsDelta > tolerance || allocsFail {
			line += "  REGRESSION"
			failures = append(failures, name)
		}
		fmt.Fprintln(w, line)
	}
	if compared == 0 {
		return errors.New("no benchmarks in common with the baseline")
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past tolerance %.0f%%: %s",
			len(failures), 100*tolerance, strings.Join(failures, ", "))
	}
	fmt.Fprintf(w, "OK: %d benchmark(s) within tolerance %.0f%%\n", compared, 100*tolerance)
	return nil
}

// delta is the fractional change of cur vs base (+0.10 = 10% slower).
func delta(cur, base float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (cur - base) / base
}

func fmtNs(ns float64) string {
	if ns == math.Trunc(ns) {
		return strconv.FormatFloat(ns, 'f', 0, 64)
	}
	return strconv.FormatFloat(ns, 'f', 1, 64)
}
