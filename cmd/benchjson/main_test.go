package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: ajdloss/internal/engine
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBatchAnalyze/batch-8         	       3	   3563078 ns/op	 2616312 B/op	     594 allocs/op
BenchmarkBatchAnalyze/sequential-cold-8 	       3	  12960554 ns/op	10642920 B/op	    1447 allocs/op
BenchmarkEntropy-8   	 120	 9876.5 ns/op
BenchmarkBroken --- FAIL: boom
PASS
ok  	ajdloss/internal/engine	0.093s
`

func TestParse(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, strings.NewReader(sample), &buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Benchmarks []Result `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(out.Benchmarks), out.Benchmarks)
	}
	b0 := out.Benchmarks[0]
	if b0.Name != "BenchmarkBatchAnalyze/batch" || b0.NsPerOp != 3563078 || b0.Iterations != 3 {
		t.Fatalf("first benchmark: %+v", b0)
	}
	if b0.BytesPerOp == nil || *b0.BytesPerOp != 2616312 || b0.AllocsPerOp == nil || *b0.AllocsPerOp != 594 {
		t.Fatalf("first benchmark allocs: %+v", b0)
	}
	// The -8 cpu suffix is stripped; a name whose last segment is not a
	// number keeps its dash.
	b2 := out.Benchmarks[2]
	if b2.Name != "BenchmarkEntropy" || b2.NsPerOp != 9876.5 || b2.BytesPerOp != nil {
		t.Fatalf("third benchmark: %+v", b2)
	}
}

func TestTrimCPUSuffix(t *testing.T) {
	for in, want := range map[string]struct {
		name  string
		procs int
	}{
		"BenchmarkX-8":          {"BenchmarkX", 8},
		"BenchmarkX":            {"BenchmarkX", 1},
		"BenchmarkX/sub-case-4": {"BenchmarkX/sub-case", 4},
		"BenchmarkX/sub-case":   {"BenchmarkX/sub-case", 1},
	} {
		if name, procs := splitCPUSuffix(in); name != want.name || procs != want.procs {
			t.Errorf("splitCPUSuffix(%q) = %q, %d; want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}

// TestMachine: the machine object carries the header lines, GOMAXPROCS
// from the name suffix, the Go version and -commit; disagreeing suffixes
// leave GOMAXPROCS out, and -compare ignores the object entirely.
func TestMachine(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-commit", "abc123"}, strings.NewReader(sample), &buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Machine map[string]any `json:"machine"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"goos":       "linux",
		"goarch":     "amd64",
		"cpu":        "Intel(R) Xeon(R) Processor @ 2.10GHz",
		"gomaxprocs": float64(8),
		"go_version": runtime.Version(),
		"commit":     "abc123",
	}
	if !reflect.DeepEqual(out.Machine, want) {
		t.Fatalf("machine = %v, want %v", out.Machine, want)
	}

	buf.Reset()
	mixed := "BenchmarkA-2\t10\t5 ns/op\nBenchmarkA-4\t10\t4 ns/op\n"
	if err := run(nil, strings.NewReader(mixed), &buf); err != nil {
		t.Fatal(err)
	}
	out.Machine = nil
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Machine["gomaxprocs"]; ok || out.Machine["commit"] != nil {
		t.Fatalf("mixed -cpu run without -commit: machine = %v", out.Machine)
	}

	// A baseline from another machine compares on its benchmarks alone.
	base := writeBaseline(t, "goos: plan9\ncpu: other\n"+compareBase)
	buf.Reset()
	current := "goos: linux\nBenchmarkFast-2\t100\t1000 ns/op\t512 B/op\t10 allocs/op\n"
	if err := run([]string{"-compare", base}, strings.NewReader(current), &buf); err != nil {
		t.Fatalf("compare across machines: %v\n%s", err, buf.String())
	}
}

func TestRunUsage(t *testing.T) {
	if err := run([]string{"a", "b"}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("two args accepted")
	}
	if err := run([]string{"/nonexistent/bench.txt"}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// An empty run (zero parseable benchmark lines) must fail, not emit an empty
// benchmarks array that a later -compare would wave through.
func TestRunEmptyInputFails(t *testing.T) {
	err := run(nil, strings.NewReader("PASS\nok  \tajdloss\t0.01s\n"), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "no benchmark lines") {
		t.Fatalf("empty input: err = %v, want no-benchmark-lines error", err)
	}
}

// writeBaseline converts bench text into a baseline JSON file via run itself.
func writeBaseline(t *testing.T, benchText string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(nil, strings.NewReader(benchText), &buf); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/baseline.json"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const compareBase = `BenchmarkFast-8	100	1000 ns/op	512 B/op	10 allocs/op
BenchmarkSlow-8	100	2000 ns/op
`

func TestCompareWithinTolerance(t *testing.T) {
	base := writeBaseline(t, compareBase)
	// +10% ns/op and equal allocs: inside the 25% default tolerance. A
	// second, slower occurrence of Fast checks the min-of-count reduction.
	current := `BenchmarkFast-8	100	1100 ns/op	512 B/op	10 allocs/op
BenchmarkFast-8	100	9999 ns/op	512 B/op	10 allocs/op
BenchmarkSlow-8	100	1500 ns/op
BenchmarkBrandNew-8	100	42 ns/op
`
	var buf bytes.Buffer
	if err := run([]string{"-compare", base}, strings.NewReader(current), &buf); err != nil {
		t.Fatalf("compare failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "OK: 2 benchmark(s)") {
		t.Fatalf("expected 2 compared benchmarks:\n%s", out)
	}
	if !strings.Contains(out, "new (no baseline)") {
		t.Fatalf("BrandNew should be reported as new:\n%s", out)
	}
	if strings.Contains(out, "REGRESSION") {
		t.Fatalf("no regression expected:\n%s", out)
	}
}

func TestCompareNsRegressionFails(t *testing.T) {
	base := writeBaseline(t, compareBase)
	current := `BenchmarkFast-8	100	1600 ns/op	512 B/op	10 allocs/op
`
	var buf bytes.Buffer
	err := run([]string{"-compare", base, "-tolerance", "0.25"}, strings.NewReader(current), &buf)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkFast") {
		t.Fatalf("60%% ns/op regression: err = %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("regression line not flagged:\n%s", buf.String())
	}
	// A looser tolerance admits the same delta.
	buf.Reset()
	if err := run([]string{"-compare", base, "-tolerance", "0.75"}, strings.NewReader(current), &buf); err != nil {
		t.Fatalf("75%% tolerance should pass: %v", err)
	}
}

func TestCompareAllocsRegressionFails(t *testing.T) {
	base := writeBaseline(t, compareBase)
	// ns/op improved but allocs/op doubled: still a gate failure.
	current := `BenchmarkFast-8	100	900 ns/op	512 B/op	20 allocs/op
`
	var buf bytes.Buffer
	err := run([]string{"-compare", base}, strings.NewReader(current), &buf)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkFast") {
		t.Fatalf("allocs regression: err = %v\n%s", err, buf.String())
	}
}

func TestCompareNoOverlapFails(t *testing.T) {
	base := writeBaseline(t, compareBase)
	var buf bytes.Buffer
	err := run([]string{"-compare", base}, strings.NewReader("BenchmarkOther-8	10	5 ns/op\n"), &buf)
	if err == nil || !strings.Contains(err.Error(), "no benchmarks in common") {
		t.Fatalf("disjoint sets: err = %v", err)
	}
}

func TestCompareBadBaseline(t *testing.T) {
	if err := run([]string{"-compare", "/nonexistent.json"}, strings.NewReader(compareBase), &bytes.Buffer{}); err == nil {
		t.Fatal("missing baseline accepted")
	}
	path := t.TempDir() + "/empty.json"
	if err := os.WriteFile(path, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-compare", path}, strings.NewReader(compareBase), &bytes.Buffer{}); err == nil {
		t.Fatal("empty baseline accepted")
	}
}
