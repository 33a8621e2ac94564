package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running contractd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	exited  chan struct{}
	waitErr error
	hc      *http.Client
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// batchWindow is contractd's design micro-batch window. Each client owns
// its sessions and waits for every reply, so a design query never finds
// company in a batch and the 2 ms default would be pure sleep that hides
// every other layer's cost.
const batchWindow = "100us"

// startDaemon launches contractd on a free loopback port with the given
// journal directory and extra flags. Its log goes to logPath.
func startDaemon(bin, journalDir, logPath string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{
		"-listen", addr,
		"-journal-dir", journalDir,
		"-journal-sync", "buffered",
		"-log-level", "warn",
		"-batch-window", batchWindow,
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// contractd must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		exited: make(chan struct{}),
		hc:     &http.Client{Timeout: 120 * time.Second},
	}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start contractd: %w", err)
	}
	go func() {
		d.waitErr = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz every millisecond until it answers 200, and
// returns the time since the process started.
func (d *daemon) waitHealthy(timeout time.Duration) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second}
	deadline := d.started.Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return 0, fmt.Errorf("contractd exited before healthy: %v", d.waitErr)
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.started), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("contractd not healthy after %v", timeout)
}

// stop drains contractd with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than a minute.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return d.waitErr
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("stop contractd: %w", err)
	}
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(time.Minute):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("contractd did not drain within a minute; killed")
	}
}

// kill ends contractd at once; for error paths.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuTime is contractd's CPU time so far: utime + stime from
// /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis are space-separated, utime and stime being fields 14 and
	// 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// memStats reads runtime.MemStats fields from the heap profile's text
// form; gc forces a collection first, so HeapAlloc is the live heap.
func (d *daemon) memStats(gc bool) (map[string]float64, error) {
	url := d.base + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	resp, err := d.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("heap profile: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		name, val, ok := strings.Cut(line[2:], " = ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if _, ok := out["HeapAlloc"]; !ok {
		return nil, errors.New("heap profile carries no HeapAlloc")
	}
	return out, nil
}

// prom is one /metrics scrape: sample name (labels included) to value.
// Histogram buckets are dropped; their _sum and _count are kept.
type prom map[string]float64

func (d *daemon) scrape() (prom, error) {
	resp, err := d.hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	out := prom{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.Fields(val)[0], 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// delta is the growth of a counter between two scrapes.
func delta(before, after prom, name string) float64 { return after[name] - before[name] }

// meanDelta is the mean of the histogram observations made between two
// scrapes, or 0 when there were none.
func meanDelta(before, after prom, hist string) float64 {
	n := delta(before, after, hist+"_count")
	if n <= 0 {
		return 0
	}
	return delta(before, after, hist+"_sum") / n
}
