// Command perfbench is the serving benchmark for ajdlossd. It builds the
// real cmd/ajdlossd from the checkout, starts it as a child process on
// loopback with its normal flags, generates every input from -seed, drives
// the daemon from this one process over at most two connections, checks
// every answer, and prints each metric by name and unit. Run it from the
// root of a checkout:
//
//	bash perfbench/run.sh --workload hot-mixed --seed 1 --seconds 20 --trace 0
//
// Workloads (see workload.go for why each exists):
//
//	hot-mixed     read-only, 12 keys, every timed request an LRU hit
//	cold-analyze  analyze with a distinct schema per request, the LRU never hits
//	append-mixed  open-loop JSON appends beside closed-loop reads, durability on
//
// With -trace 0 the last line carries the end-to-end metrics; with -trace 1
// the run also replays the workload in-process against fresh service
// instances, writes the spans, prints the per-layer table and reports the
// per-layer metrics. Build output and spans go under .bench_build/ in the
// checkout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupStarts is how many times each run starts a daemon from scratch;
	// setup_s is the median, and the last start serves the timed window.
	setupStarts = 9
	warmup      = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx)
	stop()
	os.Exit(code)
}

func run(ctx context.Context) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "hot-mixed | cold-analyze | append-mixed")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1: also run the traced in-process replay and report per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := bench(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// errIncorrect reports that the run completed but some answer was wrong;
// the result line is still printed.
var errIncorrect = errors.New("answers failed their checks")

func bench(ctx context.Context, name string, seed uint64, window time.Duration, trace bool) error {
	began := time.Now()
	phase := func(what string) {
		fmt.Fprintf(os.Stderr, "perfbench: %-10s done at %6.2fs\n", what, time.Since(began).Seconds())
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	phase("inputs")
	outDir, err := filepath.Abs(filepath.Join(".bench_build", "perfbench"))
	if err != nil {
		return err
	}
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	csvPath := filepath.Join(runDir, "ds.csv")
	if err := os.WriteFile(csvPath, w.csv, 0o644); err != nil {
		return err
	}
	bin, err := buildDaemon(ctx, filepath.Join(outDir, "bin"))
	if err != nil {
		return err
	}
	phase("build")

	// Set-up, measured setupStarts times from process start until /healthz
	// answers with the dataset loaded; each start gets an empty data dir.
	var setups []float64
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for k := range setupStarts {
		if d != nil {
			d.stop()
		}
		if d, err = startDaemon(ctx, bin, csvPath, filepath.Join(runDir, "data-"+strconv.Itoa(k)), w); err != nil {
			return err
		}
		setups = append(setups, d.setup.Seconds())
	}
	phase("setup")
	info, err := d.datasetInfo()
	if err != nil {
		return err
	}
	chk, err := newChecker(w, seed, info)
	if err != nil {
		return err
	}

	st, err := runLoad(ctx, d, w, chk, warmup, window)
	if err != nil {
		return err
	}
	phase("load")
	counters, err := d.counters()
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	final, err := d.datasetInfo()
	if err != nil {
		return err
	}
	var disk int64
	if w.durable {
		if disk, err = dirBytes(d.dataDir); err != nil {
			return err
		}
	}
	d.stop()
	notes := chk.verify(w, st, final)
	phase("verify")

	rep := summarize(w, st, setups, rss, disk, final, counters)
	rep.meta = metadata(w, seed, window)
	rep.notes = append(rep.notes, notes...)
	if chk.ledger != nil {
		rep.meta["appended_rows"] = chk.ledger.added
		rep.meta["duplicate_rows"] = chk.ledger.dups
		rep.meta["final_rows"] = final.Rows
		rep.meta["final_generation"] = final.Generation
	}
	if st.warmFail > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d of %d warm-up requests failed", st.warmFail, st.warmOps))
	}

	metrics := rep.endToEnd
	if trace {
		tr, err := runTrace(ctx, w, seed, outDir)
		if err != nil {
			return err
		}
		rep.trace = tr
		phase("trace")
		metrics = rep.perLayer(tr, counters)
	}
	rep.print(os.Stdout, w)
	correct := rep.failed == 0 && st.warmFail == 0 && (rep.trace == nil || rep.trace.failed == 0)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return errIncorrect
	}
	return nil
}

// metadata describes the machine, toolchain and inputs of the run.
func metadata(w *workload, seed uint64, window time.Duration) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	// Only the checkout's own repository counts, not one it may sit in.
	commit := "unknown (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	// The daemon inherits this environment; without GOMAXPROCS set, Go
	// sizes it to the CPU count.
	daemonProcs := strconv.Itoa(runtime.NumCPU())
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		daemonProcs = v
	}
	return map[string]any{
		"workload": w.name, "seed": seed, "window_s": window.Seconds(), "warmup_s": warmup.Seconds(),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"cpu": cpu, "nproc": runtime.NumCPU(), "bench_gomaxprocs": runtime.GOMAXPROCS(0),
		"daemon_gomaxprocs": daemonProcs, "commit": commit, "sizes": w.sizes,
		"setup_starts": setupStarts,
	}
}

// quantile returns the q-quantile (nearest rank) of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(len(sorted)-1, i))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}
