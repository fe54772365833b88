package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ajdloss/internal/service"
)

// buildDaemon compiles cmd/ajdlossd from the checkout into dir.
func buildDaemon(ctx context.Context, dir string) (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "ajdlossd")); err != nil {
		return "", fmt.Errorf("run from the root of an ajdloss checkout: %w", err)
	}
	bin := filepath.Join(dir, "ajdlossd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/ajdlossd")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/ajdlossd: %w", err)
	}
	return bin, nil
}

// daemon is one running ajdlossd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	stderr  *bytes.Buffer
	waited  chan struct{}
	waitErr error
	setup   time.Duration // process start until /healthz answered with datasets loaded
}

// startDaemon launches the daemon on a loopback port with the workload's
// flags and waits until /healthz answers and the dataset is listed with
// all its rows.
func startDaemon(ctx context.Context, bin, csvPath, dataDir string, w *workload) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-cache", "256", "-load", datasetName + "=" + csvPath}
	if w.durable {
		args = append(args, "-data", dataDir, "-wal-compact", strconv.FormatInt(w.walCompact, 10))
	}
	cmd := exec.Command(bin, args...)
	// If the bench itself is killed, the kernel kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, dataDir: dataDir, stderr: new(bytes.Buffer), waited: make(chan struct{})}
	cmd.Stderr = d.stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ajdlossd: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ajdlossd listening on "); ok {
				addrc <- a
			}
		}
		// Wait only after stdout is drained, as exec requires.
		d.waitErr = cmd.Wait()
		close(d.waited)
	}()
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, fmt.Errorf("%w\ndaemon stderr:\n%s", err, d.stderr.String())
	}
	select {
	case d.base = <-addrc:
	case <-d.waited:
		return fail(fmt.Errorf("ajdlossd exited before listening: %v", d.waitErr))
	case <-time.After(60 * time.Second):
		return fail(fmt.Errorf("ajdlossd did not report its address within 60s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			return fail(fmt.Errorf("ajdlossd /healthz not ready within 60s: %v", err))
		}
		time.Sleep(500 * time.Microsecond)
	}
	d.setup = time.Since(start)
	info, err := d.datasetInfo()
	if err != nil {
		return fail(err)
	}
	if info.Rows != w.rows {
		return fail(fmt.Errorf("dataset loaded with %d rows, generated %d", info.Rows, w.rows))
	}
	return d, nil
}

// datasetInfo reads the dataset's listing entry.
func (d *daemon) datasetInfo() (service.Info, error) {
	var list struct {
		Datasets []service.Info `json:"datasets"`
	}
	if err := getJSON(d.base+"/v1/"+ns+"/datasets", &list); err != nil {
		return service.Info{}, err
	}
	for _, info := range list.Datasets {
		if info.Name == datasetName {
			return info, nil
		}
	}
	return service.Info{}, fmt.Errorf("dataset %q not listed by the daemon", datasetName)
}

// stop sends SIGTERM, allows a graceful drain, kills after 10s, and always
// waits for the process to be reaped.
func (d *daemon) stop() {
	if d.cmd.Process == nil {
		return
	}
	select {
	case <-d.waited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.waited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.waited
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuSeconds is the CPU time (user plus system, all threads) the daemon
// has been charged so far. With paravirtual steal accounting the kernel
// does not charge time the hypervisor took away, so this figure, unlike
// wall time, does not move with a neighbour's load.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name field may contain spaces; fields are counted after
	// its closing parenthesis. utime and stime are fields 14 and 15.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.cmd.Process.Pid)
	}
	var ticks float64
	for _, s := range f[11:13] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat: %w", d.cmd.Process.Pid, err)
		}
		ticks += v
	}
	return ticks / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// daemonCounters is what the run scrapes from /stats and /v1/{ns}/stats.
type daemonCounters struct {
	Stats service.Stats
	NS    service.NamespaceStats
}

func (d *daemon) counters() (daemonCounters, error) {
	var c daemonCounters
	if err := getJSON(d.base+"/stats", &c.Stats); err != nil {
		return c, err
	}
	err := getJSON(d.base+"/v1/"+ns+"/stats", &c.NS)
	return c, err
}

func getJSON(u string, v any) error {
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, body)
	}
	return json.Unmarshal(body, v)
}
