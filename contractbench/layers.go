package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dyncontract/internal/core"
	"dyncontract/internal/engine"
	"dyncontract/internal/journal"
	"dyncontract/internal/platform"
	"dyncontract/internal/server"
	"dyncontract/internal/spans"
)

// layerUnits fixes the name and unit of every per-layer metric; a traced
// run reports exactly these.
var layerUnits = map[string]string{
	"server.handler_ms.round":              "ms",
	"server.handler_ms.design":             "ms",
	"server.handler_ms.drift":              "ms",
	"server.handler_ms.churn":              "ms",
	"server.handler_ms.info":               "ms",
	"server.net_ms.round":                  "ms",
	"server.queue_wait_ms":                 "ms",
	"server.design_batch_size":             "count",
	"server.decode_us.drift":               "us",
	"server.encode_us.round":               "us",
	"journal.append_us":                    "us",
	"journal.records_per_cmd":              "count",
	"journal.bytes_per_cmd":                "B",
	"journal.snapshot_s":                   "s",
	"journal.snapshot_mb":                  "MB",
	"journal.recover_decode_s":             "s",
	"journal.fsync_us":                     "us",
	"journal.fsyncs_per_cmd":               "count",
	"engine.round_ms":                      "ms",
	"engine.stage_ms.design":               "ms",
	"engine.stage_ms.respond":              "ms",
	"engine.stage_ms.settle":               "ms",
	"engine.stage_ms.observe":              "ms",
	"engine.shard_ms.design":               "ms",
	"engine.shard_ms.respond":              "ms",
	"engine.drift_rebuild_ms":              "ms",
	"engine.drift_shards_rebuilt":          "count",
	"engine.drift_shards_skipped":          "count",
	"engine.compactions":                   "count",
	"engine.cache_hit_ratio":               "ratio",
	"engine.respond_hit_ratio":             "ratio",
	"engine.step_ms.warm":                  "ms",
	"engine.step_ms.sparse":                "ms",
	"engine.step_ms.structural":            "ms",
	"engine.step_ms.cold":                  "ms",
	"solver.designs_per_round":             "count",
	"solver.design_us":                     "us",
	"solver.batch_size":                    "count",
	"solver.scalar_fallbacks":              "count",
	"core.design_batch_us":                 "us",
	"proc.alloc_mb_per_op":                 "MB",
	"proc.gc_per_kop":                      "count",
	"client.cpu_ms_per_op":                 "ms",
	"trace.unattributed_ms.round":          "ms",
	"trace.overhead_pct":                   "%",
	"trace.self_ms.http":                   "ms",
	"trace.self_ms.session.queue":          "ms",
	"trace.self_ms.session.execute":        "ms",
	"trace.self_ms.session.design":         "ms",
	"trace.self_ms.design.batch":           "ms",
	"trace.self_ms.engine.round":           "ms",
	"trace.self_ms.engine.stage.design":    "ms",
	"trace.self_ms.engine.stage.contracts": "ms",
	"trace.self_ms.engine.stage.respond":   "ms",
	"trace.self_ms.engine.stage.settle":    "ms",
	"trace.self_ms.engine.stage.observe":   "ms",
	"trace.self_ms.engine.shard.design":    "ms",
	"trace.self_ms.engine.shard.respond":   "ms",
	"trace.self_ms.engine.compact":         "ms",
}

// perLayer derives the per-layer metrics: counter deltas over the live
// measured phase, a traced pass, an fsync pass, and in-process timings of
// the public calls each layer exposes.
func (b *bench) perLayer(live *passResult) (map[string]metric, error) {
	v := map[string]float64{}
	e := live.last()
	p0, p1 := e.prom0, e.prom1
	const s2ms, s2us = 1e3, 1e6

	// Server.
	lat := latencies(e.res.samples)
	route := func(name string) float64 { return meanDelta(p0, p1, "dyncontract_http_"+name+"_seconds") * s2ms }
	v["server.handler_ms.round"] = route("rounds_advance")
	v["server.handler_ms.design"] = route("design")
	v["server.handler_ms.info"] = route("sessions_get")
	v["server.net_ms.round"] = meanMs(lat[kindRound]) - v["server.handler_ms.round"]
	v["server.queue_wait_ms"] = meanDelta(p0, p1, "dyncontract_server_session_queue_wait_seconds") * s2ms
	v["server.design_batch_size"] = meanDelta(p0, p1, "dyncontract_server_design_batch_size")

	// Journal.
	commands := 0
	for _, ss := range e.res.samples {
		for _, s := range ss {
			if s.ok() && s.kind.command() {
				commands++
			}
		}
	}
	perCmd := func(name string) float64 { return delta(p0, p1, name) / float64(max(1, commands)) }
	v["journal.append_us"] = meanDelta(p0, p1, "dyncontract_journal_append_seconds") * s2us
	v["journal.records_per_cmd"] = perCmd("dyncontract_journal_records_total")
	v["journal.bytes_per_cmd"] = perCmd("dyncontract_journal_bytes_total")
	v["journal.snapshot_s"] = meanDelta(p0, p1, "dyncontract_journal_snapshot_seconds")
	v["journal.snapshot_mb"] = float64(live.snapBytes) / 1e6

	// Engine and solver.
	v["engine.round_ms"] = meanDelta(p0, p1, "dyncontract_engine_round_seconds") * s2ms
	for _, st := range []string{"design", "respond", "settle", "observe"} {
		v["engine.stage_ms."+st] = meanDelta(p0, p1, "dyncontract_engine_stage_"+st+"_seconds") * s2ms
	}
	v["engine.shard_ms.design"] = meanDelta(p0, p1, "dyncontract_engine_shard_design_seconds") * s2ms
	v["engine.shard_ms.respond"] = meanDelta(p0, p1, "dyncontract_engine_shard_respond_seconds") * s2ms
	v["engine.drift_rebuild_ms"] = meanDelta(p0, p1, "dyncontract_engine_drift_rebuild_seconds") * s2ms
	v["engine.drift_shards_rebuilt"] = delta(p0, p1, "dyncontract_engine_drift_shards_rebuilt_total")
	v["engine.drift_shards_skipped"] = delta(p0, p1, "dyncontract_engine_drift_shards_skipped_total")
	v["engine.compactions"] = delta(p0, p1, "dyncontract_engine_drift_compactions_total")
	v["engine.cache_hit_ratio"] = ratio(delta(p0, p1, "dyncontract_engine_cache_hits_total"), delta(p0, p1, "dyncontract_engine_cache_misses_total"))
	v["engine.respond_hit_ratio"] = ratio(delta(p0, p1, "dyncontract_engine_respond_hits_total"), delta(p0, p1, "dyncontract_engine_respond_misses_total"))
	v["solver.designs_per_round"] = delta(p0, p1, "dyncontract_solver_designs_total") / max(1, delta(p0, p1, "dyncontract_engine_rounds_total"))
	v["solver.design_us"] = meanDelta(p0, p1, "dyncontract_solver_design_seconds") * s2us
	v["solver.batch_size"] = meanDelta(p0, p1, "dyncontract_solver_batch_size")
	v["solver.scalar_fallbacks"] = delta(p0, p1, "dyncontract_solver_scalar_fallbacks_total")

	// Process and client.
	acked := float64(max(1, e.acked))
	v["proc.alloc_mb_per_op"] = (e.mem1["TotalAlloc"] - e.mem0["TotalAlloc"]) / 1e6 / acked
	v["proc.gc_per_kop"] = (e.mem1["NumGC"] - e.mem0["NumGC"]) / acked * 1e3
	v["client.cpu_ms_per_op"] = float64(e.client) / float64(time.Millisecond) / acked

	// Journal recovery decode, on a copy of the run's journal.
	dec, err := timeRecover(live.journal + ".copy")
	if err != nil {
		return nil, err
	}
	v["journal.recover_decode_s"] = dec

	if err := b.tracedPass(live, v); err != nil {
		return nil, err
	}
	if err := b.fsyncPass(v); err != nil {
		return nil, err
	}
	if err := b.inProcess(live, v); err != nil {
		return nil, err
	}

	out := make(map[string]metric, len(v))
	for name, unit := range layerUnits {
		x, ok := v[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not measured", name)
		}
		out[name] = metric{Value: x, Unit: unit}
	}
	return out, nil
}

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

// timeRecover times (*journal.Store).Recover, which reads and decodes
// every segment and snapshot, on a journal directory.
func timeRecover(dir string) (float64, error) {
	defer os.RemoveAll(dir)
	st, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	recs, failed, err := st.Recover()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if len(failed) > 0 {
		return 0, fmt.Errorf("journal copy: %d sessions failed to recover: %v", len(failed), failed[0])
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("journal copy holds no sessions")
	}
	return d.Seconds(), nil
}

// traceSpans are the span names the traced pass attributes self time to;
// every "http <route>" root counts as http.
var traceSpans = []string{
	"http", "session.queue", "session.execute", "session.design", "design.batch",
	"engine.round", "engine.stage.design", "engine.stage.contracts", "engine.stage.respond",
	"engine.stage.settle", "engine.stage.observe", "engine.shard.design", "engine.shard.respond",
	"engine.compact",
}

// tracedPass repeats the measured phase on a contractd tracing every
// request, collects the retained traces while it runs, and attributes
// self time per span.
func (b *bench) tracedPass(live *passResult, v map[string]float64) error {
	d, t, _, err := b.setup(b.p, "traced", "-trace", "-trace-sample", "1")
	if err != nil {
		return err
	}
	defer d.kill()
	defer t.close()
	reqs := t.prepare(b.p, func(cp *clientPlan) []op { return cp.ops })

	// The recorder keeps only the most recent traces, so poll it through
	// the run; traces are deduplicated by ID.
	got := map[spans.TraceID]spans.Trace{}
	var pollErr error
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := pollTraces(d, got); err != nil && pollErr == nil {
					pollErr = err
				}
			}
		}
	}()
	res := t.drive(reqs)
	close(stop)
	wg.Wait()
	if pollErr == nil {
		pollErr = pollTraces(d, got)
	}
	if pollErr != nil {
		return fmt.Errorf("traces: %w", pollErr)
	}
	if err := res.firstError(); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	if err := d.stop(); err != nil {
		return err
	}
	acked := 0
	for _, ss := range res.samples {
		acked += len(ss)
	}
	traced := float64(acked) / res.wall.Seconds()
	var rates []float64
	for _, e := range live.episodes {
		rates = append(rates, e.throughput())
	}
	untraced := median(rates)
	v["trace.overhead_pct"] = (untraced - traced) / untraced * 100

	self := map[string][]float64{}
	var roundSelf []float64
	rootByKind := map[kind][]float64{}
	for id, tr := range got {
		k, clientTrace := kindOfTrace(id.String())
		for _, sp := range tr.Spans {
			name := sp.Name
			isHTTP := strings.HasPrefix(name, "http ")
			if isHTTP {
				name = "http"
			}
			s := selfTime(sp, tr.Spans)
			self[name] = append(self[name], s)
			if sp.Parent == 0 && isHTTP && clientTrace {
				rootByKind[k] = append(rootByKind[k], ms(sp.Duration()))
				if k == kindRound {
					roundSelf = append(roundSelf, s)
				}
			}
		}
	}
	fmt.Fprintf(b.o.log, "traced pass: %d traces collected, %.1f req/s traced vs %.1f untraced\n", len(got), traced, untraced)
	for _, name := range traceSpans {
		v["trace.self_ms."+name] = mean(self[name])
	}
	v["trace.unattributed_ms.round"] = mean(roundSelf)
	// Drift and churn share the drift route, so /metrics cannot split
	// them; the traced roots, tagged by the client's request IDs, can.
	v["server.handler_ms.drift"] = mean(rootByKind[kindDrift])
	v["server.handler_ms.churn"] = mean(rootByKind[kindChurn])
	return nil
}

func pollTraces(d *daemon, got map[spans.TraceID]spans.Trace) error {
	resp, err := d.hc.Get(d.base + "/debug/traces?which=recent")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var tr spans.Trace
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			return err
		}
		if _, ok := tr.Root(); ok {
			got[tr.ID] = tr
		}
	}
	return sc.Err()
}

// selfTime is a span's duration minus the part of it its children cover,
// in milliseconds. Children may overlap (parallel shards), so their
// intervals are merged first.
func selfTime(sp spans.SpanData, all []spans.SpanData) float64 {
	type iv struct{ a, b time.Time }
	var kids []iv
	for _, c := range all {
		if c.Parent == sp.ID && c.ID != sp.ID {
			a, b := c.Start, c.End
			if a.Before(sp.Start) {
				a = sp.Start
			}
			if b.After(sp.End) {
				b = sp.End
			}
			if b.After(a) {
				kids = append(kids, iv{a, b})
			}
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a.Before(kids[j].a) })
	var covered time.Duration
	var cur iv
	for i, k := range kids {
		switch {
		case i == 0:
			cur = k
		case !k.a.After(cur.b):
			if k.b.After(cur.b) {
				cur.b = k.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = k
		}
	}
	if len(kids) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return ms(sp.Duration() - covered)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fsyncPass runs a quarter-length many-sessions sequence on a contractd
// with -journal-sync fsync, where every command is fsynced before it
// executes.
func (b *bench) fsyncPass(v map[string]float64) error {
	w, err := workloadByName("many-sessions")
	if err != nil {
		return err
	}
	fp, err := buildPlan(w, b.o.seed, max(1, b.o.seconds/4), b.o.tiny)
	if err != nil {
		return err
	}
	d, t, _, err := b.setup(fp, "fsync", "-journal-sync", "fsync")
	if err != nil {
		return err
	}
	defer d.kill()
	defer t.close()
	p0, err := d.scrape()
	if err != nil {
		return err
	}
	res := t.drive(t.prepare(fp, func(cp *clientPlan) []op { return cp.ops }))
	if err := res.firstError(); err != nil {
		return fmt.Errorf("fsync pass: %w", err)
	}
	p1, err := d.scrape()
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	commands := 0
	for _, ss := range res.samples {
		for _, s := range ss {
			if s.kind.command() {
				commands++
			}
		}
	}
	v["journal.fsync_us"] = meanDelta(p0, p1, "dyncontract_journal_fsync_seconds") * 1e6
	v["journal.fsyncs_per_cmd"] = delta(p0, p1, "dyncontract_journal_fsync_seconds_count") / float64(max(1, commands))
	return nil
}

// inProcess times the public calls of single layers on the workload's own
// inputs: engine Step per round class, core.DesignBatch per item, and
// encoding/json on the run's drift and round bodies.
func (b *bench) inProcess(live *passResult, v map[string]float64) error {
	sp := b.p.clients[0].sessions[0]
	steps, err := stepTimings(sp)
	if err != nil {
		return err
	}
	for k, x := range steps {
		v["engine.step_ms."+k] = x
	}
	if v["core.design_batch_us"], err = designBatchTiming(sp.pop); err != nil {
		return err
	}

	var drifts [][]byte
	for _, o := range b.p.clients[0].ops {
		if o.kind == kindDrift {
			drifts = append(drifts, o.body)
		}
	}
	v["server.decode_us.drift"], err = perItemUs(len(drifts), func() error {
		for _, body := range drifts {
			var req server.DriftRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("drift decode: %w", err)
	}
	rounds := make([]server.RoundJSON, len(live.last().res.rounds))
	for i, body := range live.last().res.rounds {
		if err := json.Unmarshal(body, &rounds[i]); err != nil {
			return fmt.Errorf("round response: %w", err)
		}
	}
	v["server.encode_us.round"], err = perItemUs(len(rounds), func() error {
		enc := json.NewEncoder(io.Discard)
		for i := range rounds {
			if err := enc.Encode(rounds[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("round encode: %w", err)
	}
	return nil
}

// perItemUs is the median over repetitions of fn's time per item, in
// microseconds; fn runs at least three times and for at least 0.2 s.
func perItemUs(items int, fn func() error) (float64, error) {
	if items == 0 {
		return 0, nil
	}
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < 200*time.Millisecond {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0))/float64(time.Microsecond)/float64(items))
	}
	return median(per), nil
}

// stepTimings times (*engine.Engine).Step in-process on a copy of the
// session's population, wired as contractd wires a session: dynamic
// policy, design cache, respond memo and the session's shard setting.
// Each class of round is timed after the drift that causes it.
func stepTimings(sp *sessionPlan) (map[string]float64, error) {
	pop := clonePop(sp.pop)
	eng, err := engine.New(pop, engine.Config{
		Policy: &platform.DynamicPolicy{},
		Rounds: 1,
		Cache:  engine.NewCache(),
		Memo:   engine.NewRespondMemo(),
		Shards: sp.create.Shards,
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	step := func() (float64, error) {
		t0 := time.Now()
		err := eng.Step(ctx)
		return ms(time.Since(t0)), err
	}
	for i := 0; i < 2; i++ {
		if _, err := step(); err != nil {
			return nil, err
		}
	}
	ids := make([]string, len(pop.Agents))
	for i, a := range pop.Agents {
		ids[i] = a.ID
	}
	sort.Strings(ids)
	n := 0
	reweight := func(touch []string) {
		for _, id := range touch {
			n++
			pop.Weights[id] *= 1 + 1e-3*float64(n%7+1)
		}
		pop.Touch(touch...)
	}
	sparse := max(1, len(ids)/100)
	classes := []struct {
		name  string
		drift func(rep int)
	}{
		{"warm", func(int) {}},
		{"sparse", func(rep int) {
			off := (rep * sparse) % len(ids)
			reweight(ids[off:min(off+sparse, len(ids))])
		}},
		{"structural", func(rep int) {
			src := pop.Agents[rep%len(pop.Agents)]
			if rep%2 == 0 {
				a := *src
				a.ID = fmt.Sprintf("step-join-%d", rep)
				pop.Agents = append(pop.Agents, &a)
				pop.Weights[a.ID] = pop.Weights[src.ID]
				pop.TouchJoin(a.ID)
				return
			}
			last := pop.Agents[len(pop.Agents)-1]
			pop.Agents = pop.Agents[:len(pop.Agents)-1]
			delete(pop.Weights, last.ID)
			delete(pop.MaliceProb, last.ID)
			pop.TouchLeave(last.ID)
		}},
		{"cold", func(int) { reweight(ids) }},
	}
	out := map[string]float64{}
	for _, c := range classes {
		var times []float64
		start := time.Now()
		for rep := 0; rep < 3 || (rep < 400 && time.Since(start) < 300*time.Millisecond); rep++ {
			c.drift(rep)
			t, err := step()
			if err != nil {
				return nil, fmt.Errorf("step %s: %w", c.name, err)
			}
			times = append(times, t)
		}
		out[c.name] = median(times)
	}
	return out, nil
}

// designBatchTiming times core.DesignBatch over every agent of the
// population on one Scratch, per item.
func designBatchTiming(pop *engine.Population) (float64, error) {
	items := make([]core.BatchItem, len(pop.Agents))
	for i, a := range pop.Agents {
		items[i] = core.BatchItem{Agent: a, Config: core.Config{Part: pop.Part, Mu: pop.Mu, W: pop.Weights[a.ID]}}
	}
	out := make([]core.BatchOutcome, len(items))
	var s core.Scratch
	return perItemUs(len(items), func() error {
		if err := core.DesignBatch(items, out, &s); err != nil {
			return err
		}
		for _, o := range out {
			if o.Err != nil {
				return o.Err
			}
		}
		return nil
	})
}

// clonePop deep-copies a population so timings never touch the plan's.
func clonePop(p *engine.Population) *engine.Population {
	c := &engine.Population{
		Weights:    make(map[string]float64, len(p.Weights)),
		MaliceProb: make(map[string]float64, len(p.MaliceProb)),
		Part:       p.Part,
		Mu:         p.Mu,
	}
	for _, a := range p.Agents {
		cp := *a
		c.Agents = append(c.Agents, &cp)
	}
	for k, x := range p.Weights {
		c.Weights[k] = x
	}
	for k, x := range p.MaliceProb {
		c.MaliceProb[k] = x
	}
	return c
}
