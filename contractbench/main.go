// Command contractbench is the repository's end-to-end and per-layer
// benchmark. It launches a real contractd (journal on, buffered sync,
// tracing off), drives it over two keep-alive connections in a closed
// loop with a seeded, pre-encoded request sequence, checks every session's
// responses and ledger against an in-process reference server, restarts
// contractd on its journal, and prints one JSON result line.
//
// Run it through run.sh, which builds contractd and this program from
// source:
//
//	bash contractbench/run.sh --workload serve-large --seed 1 --seconds 5 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the run,
// adds a traced pass, an fsync pass and in-process timings, and reports
// the per-layer metrics instead. README.md defines every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func main() {
	var o options
	fs := flag.NewFlagSet("contractbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: serve-large or many-sessions")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 5, "length of the measured phase; the work is fixed per value")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from extra traced and in-process passes")
	fs.StringVar(&o.contractd, "contractd", "", "contractd binary")
	fs.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for journals and logs")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	o.log = os.Stdout
	// The generator shares the machine with contractd; collecting its
	// short-lived request garbage less often leaves contractd more CPU.
	debug.SetGCPercent(400)
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "contractbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "contractbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	contractd string
	dir       string
	// tiny shrinks populations and work; the benchmark's tests use it.
	tiny bool
	log  io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxSeconds bounds the fixed work: serve-large's in-memory ledger grows
// with every round, and its live heap must stay well under 1 GB.
const maxSeconds = 20

func run(o options) (result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.seconds < 1 || o.seconds > maxSeconds {
		return result{}, fmt.Errorf("--seconds %d out of range [1, %d]", o.seconds, maxSeconds)
	}
	if o.contractd == "" {
		return result{}, fmt.Errorf("--contractd is required")
	}
	p, err := buildPlan(w, o.seed, o.seconds, o.tiny)
	if err != nil {
		return result{}, err
	}
	runDir, err := filepath.Abs(filepath.Join(o.dir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(runDir)
	fmt.Fprintf(o.log, "contractbench %s seed=%d seconds=%d trace=%v: %d sessions, %d measured requests, %d commands/session, -snapshot-every %d\n",
		w.name, o.seed, o.seconds, o.trace, len(p.sessions()), p.ops(), p.commands, p.snapEvery)

	b := &bench{o: o, p: p, dir: runDir}
	t0 := time.Now()
	live, err := b.livePass()
	if err != nil {
		return result{}, err
	}
	t1 := time.Now()
	b.check(live)
	fmt.Fprintf(o.log, "wall: %d episodes and recovery %.1fs, reference %.1fs\n", len(live.episodes), t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
	for i, e := range live.episodes {
		fmt.Fprintf(o.log, "episode %d: set-up %.3fs, measured %.3fs; contractd cpu %.2fs, %v GCs, %.0f MB allocated; benchmark cpu %.2fs\n",
			i, e.setup.Seconds(), e.res.wall.Seconds(), e.cpu.Seconds(), e.mem1["NumGC"]-e.mem0["NumGC"], (e.mem1["TotalAlloc"]-e.mem0["TotalAlloc"])/1e6, e.client.Seconds())
	}
	e2e := b.endToEnd(live)
	acked, failed := live.counts()
	res := result{Correct: len(b.mismatches) == 0, Attempted: acked + failed, Failed: failed + b.refFailed}
	for _, m := range b.mismatches {
		fmt.Fprintln(o.log, "MISMATCH:", m)
	}
	printMetrics(o.log, "end-to-end", e2e)
	if !o.trace {
		res.Metrics = e2e
		return res, nil
	}
	layers, err := b.perLayer(live)
	if err != nil {
		return result{}, err
	}
	printMetrics(o.log, "per-layer", layers)
	res.Metrics = layers
	return res, nil
}

// bench is one run's state.
type bench struct {
	o   options
	p   *plan
	dir string

	mismatches []string
	refFailed  int
}

func (b *bench) mismatch(format string, args ...any) {
	b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
}

// episode is one set-up and measured phase on a fresh contractd, and
// what was read from the daemon right after it.
type episode struct {
	setup  time.Duration
	res    driveResult
	acked  int
	failed int
	cpu    time.Duration // contractd CPU over the measured phase
	client time.Duration // benchmark CPU over the measured phase
	mem0   map[string]float64
	mem1   map[string]float64
	prom0  prom
	prom1  prom
	// sessions are the response digests of every session.
	sessions [][]byte
}

// throughput is the episode's acknowledged requests per second.
func (e *episode) throughput() float64 { return float64(e.acked) / e.res.wall.Seconds() }

// passResult is the untraced run: its episodes, and the reads of the last
// episode's daemon at shutdown and restart.
type passResult struct {
	episodes []*episode
	heapLive float64
	// ledgers are the GET …/rounds digests before shutdown, recovered the
	// ones after the first restart.
	ledgers   [][]byte
	recovered [][]byte
	recovery  float64 // median seconds to healthy over the restarts
	journal   string  // journal directory, kept for the per-layer pass
	snapBytes int64
}

// last is the episode whose daemon is stopped and recovered, and whose
// counters the per-layer metrics read.
func (pr *passResult) last() *episode { return pr.episodes[len(pr.episodes)-1] }

// acked and failed total the measured requests of every episode.
func (pr *passResult) counts() (acked, failed int) {
	for _, e := range pr.episodes {
		acked += e.acked
		failed += e.failed
	}
	return acked, failed
}

// setupReps is how many episodes a run measures, and recoveryReps how
// often it restarts on the last episode's journal. Every end-to-end metric
// but heap_live_mb is a median over them.
const (
	setupReps    = 5
	recoveryReps = 3
)

// setup boots contractd on a fresh journal, creates the plan's sessions
// and runs their warm-up rounds. The returned duration runs from process
// start to the last warm-up response.
func (b *bench) setup(p *plan, name string, extra ...string) (*daemon, *target, time.Duration, error) {
	dir := filepath.Join(b.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	args := append([]string{"-snapshot-every", fmt.Sprint(p.snapEvery)}, extra...)
	d, err := startDaemon(b.o.contractd, filepath.Join(dir, "journal"), filepath.Join(dir, "contractd.log"), args...)
	if err != nil {
		return nil, nil, 0, err
	}
	fail := func(err error) (*daemon, *target, time.Duration, error) {
		d.kill()
		log, _ := os.ReadFile(filepath.Join(dir, "contractd.log")) // best effort: the error is reported either way
		if len(log) > 2048 {
			log = log[len(log)-2048:]
		}
		return nil, nil, 0, fmt.Errorf("set-up %s: %w\ncontractd log tail:\n%s", name, err, log)
	}
	if _, err := d.waitHealthy(time.Minute); err != nil {
		return fail(err)
	}
	t, err := createSessions(d.base, p)
	if err != nil {
		return fail(err)
	}
	warm := t.drive(t.prepare(p, func(cp *clientPlan) []op { return cp.warm }))
	if err := warm.firstError(); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	return d, t, time.Since(d.started), nil
}

// firstError reports the first transport error or non-2xx response.
func (r driveResult) firstError() error {
	if r.err != nil {
		return r.err
	}
	for _, ss := range r.samples {
		for _, s := range ss {
			if !s.ok() {
				return fmt.Errorf("%s request answered %d", s.kind, s.status)
			}
		}
	}
	return nil
}

// livePass is the untraced run: episodes (set-up and measured phase,
// repeated on fresh daemons), then post-run reads, ledger digests, restart
// and recovery check on the last one.
func (b *bench) livePass() (*passResult, error) {
	pr := &passResult{}
	reps, restarts := setupReps, recoveryReps
	if b.o.tiny {
		reps, restarts = 1, 1
	}
	var (
		d *daemon
		t *target
	)
	for i := 0; i < reps; i++ {
		var (
			dur time.Duration
			err error
		)
		d, t, dur, err = b.setup(b.p, fmt.Sprintf("live%d", i))
		if err != nil {
			return nil, err
		}
		e, err := b.measure(d, t)
		if err != nil {
			d.kill()
			return nil, err
		}
		e.setup = dur
		e.sessions = t.sessionDigests()
		pr.episodes = append(pr.episodes, e)
		if i < reps-1 {
			t.close()
			if err := d.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(filepath.Join(b.dir, fmt.Sprintf("live%d", i))); err != nil {
				return nil, err
			}
		}
	}
	defer d.kill()
	defer t.close()
	pr.journal = filepath.Join(b.dir, fmt.Sprintf("live%d", reps-1), "journal")
	// Two forced collections: the first moves pooled encode buffers (a
	// snapshot's marshal buffer among them) to the pools' victim caches,
	// the second frees them, so HeapAlloc is the live heap alone.
	if _, err := d.memStats(true); err != nil {
		return nil, err
	}
	heap, err := d.memStats(true)
	if err != nil {
		return nil, err
	}
	pr.heapLive = heap["HeapAlloc"] / 1e6
	if pr.ledgers, err = t.ledgerDigests(); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if pr.snapBytes, err = snapshotBytes(pr.journal); err != nil {
		return nil, err
	}

	// Restart on the run's journal: recovery time is the median from
	// process start to healthy, and every recovered ledger must match byte
	// for byte. Each restart recovers the same state, since none executes
	// a command.
	if b.o.trace {
		if err := copyDir(pr.journal, pr.journal+".copy"); err != nil {
			return nil, err
		}
	}
	var recoveries []float64
	for i := 0; i < restarts; i++ {
		d2, err := startDaemon(b.o.contractd, pr.journal, filepath.Join(b.dir, "recovery.log"), "-snapshot-every", fmt.Sprint(b.p.snapEvery))
		if err != nil {
			return nil, err
		}
		rec, err := d2.waitHealthy(3 * time.Minute)
		if err != nil {
			d2.kill()
			return nil, err
		}
		recoveries = append(recoveries, rec.Seconds())
		if i == 0 {
			t2 := &target{base: d2.base, ids: t.ids}
			if pr.recovered, err = t2.ledgerDigests(); err != nil {
				d2.kill()
				return nil, err
			}
		}
		if err := d2.stop(); err != nil {
			return nil, err
		}
	}
	pr.recovery = median(recoveries)
	return pr, nil
}

// measure runs the measured phase on a set-up daemon and reads the
// counters around it. It waits for the auto-snapshot the plan pins, so
// the CPU and heap reads include its cost and a restart recovers from it.
func (b *bench) measure(d *daemon, t *target) (*episode, error) {
	reqs := t.prepare(b.p, func(cp *clientPlan) []op { return cp.ops })
	e := &episode{}
	var err error
	if e.mem0, err = d.memStats(false); err != nil {
		return nil, err
	}
	if e.prom0, err = d.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	e.res = t.drive(reqs)
	e.client = selfCPU() - self0
	for _, ss := range e.res.samples {
		for _, s := range ss {
			if s.ok() {
				e.acked++
			} else {
				e.failed++
			}
		}
	}
	want := float64(len(b.p.sessions()))
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if e.prom1, err = d.scrape(); err != nil {
			return nil, err
		}
		if e.prom1["dyncontract_journal_snapshots_total"] >= want {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("auto-snapshots: %v committed, want %v", e.prom1["dyncontract_journal_snapshots_total"], want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	e.cpu = cpu1 - cpu0
	if e.mem1, err = d.memStats(false); err != nil {
		return nil, err
	}
	return e, nil
}

// check compares every episode's responses and the last episode's
// ledgers against the in-process reference, and the recovered ledgers
// against the ledgers read before shutdown.
func (b *bench) check(live *passResult) {
	if _, failed := live.counts(); failed > 0 {
		b.mismatch("%d measured requests failed", failed)
	}
	for i := range live.ledgers {
		if !bytes.Equal(live.ledgers[i], live.recovered[i]) {
			b.mismatch("session %d: recovered ledger differs from the ledger served before shutdown", i)
		}
	}
	ref, err := reference(b.p)
	if err != nil {
		b.mismatch("reference: %v", err)
		return
	}
	b.refFailed = ref.failed
	for n, e := range live.episodes {
		for i := range e.sessions {
			if !bytes.Equal(e.sessions[i], ref.sessions[i]) {
				b.mismatch("episode %d, session %d: responses differ from the in-process reference", n, i)
			}
		}
	}
	for i := range live.ledgers {
		if !bytes.Equal(live.ledgers[i], ref.ledgers[i]) {
			b.mismatch("session %d: GET rounds differs from the in-process reference", i)
		}
	}
}

// e2eUnits fixes the unit of every end-to-end metric.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"throughput_rps": "1/s",
	"round_p50_ms":   "ms",
	"round_p90_ms":   "ms",
	"design_p50_ms":  "ms",
	"drift_p50_ms":   "ms",
	"churn_p50_ms":   "ms",
	"info_p50_ms":    "ms",
	"cpu_ms_per_op":  "ms",
	"heap_live_mb":   "MB",
	"recovery_s":     "s",
}

// endToEnd prints the per-kind table pooled over every episode and
// returns the end-to-end metrics: each a median of per-episode values,
// except heap_live_mb (last episode) and recovery_s (median of restarts).
func (b *bench) endToEnd(live *passResult) map[string]metric {
	var pooled [][]sample
	for _, e := range live.episodes {
		pooled = append(pooled, e.res.samples...)
	}
	lat := latencies(pooled)
	fmt.Fprintf(b.o.log, "%-14s %9s %9s %7s %10s %10s %10s %14s\n", "kind", "attempted", "succeeded", "failed", "p50_ms", "p90_ms", "p99_ms", "p99_samples")
	for k := kind(0); k < numKinds; k++ {
		ls := lat[k]
		failed := 0
		for _, ss := range pooled {
			for _, s := range ss {
				if s.kind == k && !s.ok() {
					failed++
				}
			}
		}
		fmt.Fprintf(b.o.log, "%-14s %9d %9d %7d %10.4f %10.4f %10.4f %14d\n", k, len(ls)+failed, len(ls), failed,
			ms(quantile(ls, 0.5)), ms(quantile(ls, 0.9)), ms(quantile(ls, 0.99)), len(ls)-int(0.99*float64(len(ls))))
	}
	per := map[string][]float64{}
	for _, e := range live.episodes {
		lat := latencies(e.res.samples)
		for name, x := range map[string]float64{
			"setup_s":        e.setup.Seconds(),
			"throughput_rps": e.throughput(),
			"round_p50_ms":   ms(quantile(lat[kindRound], 0.5)),
			"round_p90_ms":   ms(quantile(lat[kindRound], 0.9)),
			"design_p50_ms":  ms(quantile(lat[kindDesign], 0.5)),
			"drift_p50_ms":   ms(quantile(lat[kindDrift], 0.5)),
			"churn_p50_ms":   ms(quantile(lat[kindChurn], 0.5)),
			"info_p50_ms":    ms(quantile(lat[kindInfo], 0.5)),
			"cpu_ms_per_op":  float64(e.cpu) / float64(time.Millisecond) / float64(max(1, e.acked)),
		} {
			per[name] = append(per[name], x)
		}
	}
	out := map[string]metric{
		"heap_live_mb": {Value: live.heapLive, Unit: e2eUnits["heap_live_mb"]},
		"recovery_s":   {Value: live.recovery, Unit: e2eUnits["recovery_s"]},
	}
	for name, xs := range per {
		out[name] = metric{Value: median(xs), Unit: e2eUnits[name]}
	}
	return out
}

// latencies groups the successful samples' latencies by kind, sorted.
func latencies(samples [][]sample) [numKinds][]time.Duration {
	var out [numKinds][]time.Duration
	for _, ss := range samples {
		for _, s := range ss {
			if s.ok() {
				out[s.kind] = append(out[s.kind], s.lat)
			}
		}
	}
	for k := range out {
		sort.Slice(out[k], func(i, j int) bool { return out[k][i] < out[k][j] })
	}
	return out
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU is this process's user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// snapshotBytes totals the snapshot files a journal directory holds.
func snapshotBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() && filepath.Ext(path) == ".snap" {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies a journal directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, raw, 0o644)
	})
}
