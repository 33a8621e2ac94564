package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// buildContractd compiles the daemon under test once per test binary.
func buildContractd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "contractd")
	out, err := exec.Command("go", "build", "-o", bin, "dyncontract/cmd/contractd").CombinedOutput()
	if err != nil {
		t.Fatalf("build contractd: %v\n%s", err, out)
	}
	return bin
}

func unitsOf(ms map[string]metric) map[string]string {
	out := make(map[string]string, len(ms))
	for name, m := range ms {
		out[name] = m.Unit
	}
	return out
}

// TestWorkloadsTiny runs a tiny configuration of every workload, untraced
// and traced, against a real contractd: the output check must pass with no
// failed request, and every metric BENCHMARK.json names must be reported
// with its unit.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts contractd")
	}
	bj := readBenchmarkJSON(t)
	wantE2E := map[string]string{}
	for _, m := range bj.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := map[string]string{}
	for _, m := range bj.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	bin := buildContractd(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			res, err := run(options{
				workload:  w.name,
				seed:      7,
				seconds:   1,
				trace:     trace,
				contractd: bin,
				dir:       t.TempDir(),
				tiny:      true,
				log:       &log,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			want := wantE2E
			if trace {
				want = wantLayer
			}
			if got := unitsOf(res.Metrics); !equalMaps(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json wants %v", w.name, trace, got, want)
			}
			for name, m := range res.Metrics {
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if !strings.Contains(log.String(), "end-to-end metrics:") {
				t.Errorf("%s: report lacks the metric table:\n%s", w.name, log.String())
			}
		}
	}
}

// TestReferenceDetectsChange checks the output check itself: the
// reference replay is deterministic, and changing one request changes the
// digests it is compared by.
func TestReferenceDetectsChange(t *testing.T) {
	w, err := workloadByName("many-sessions")
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPlan(w, 3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	a, err := reference(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reference(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.failed != 0 || !equalDigests(a.sessions, b.sessions) || !equalDigests(a.ledgers, b.ledgers) {
		t.Fatalf("reference replay is not deterministic (failed=%d)", a.failed)
	}
	// Reweight a different agent in the first drift of the first session.
	ops := p.clients[0].ops
	for i, o := range ops {
		if o.kind == kindDrift && o.sess == 0 {
			var req map[string]map[string]float64
			if err := json.Unmarshal(o.body, &req); err != nil {
				t.Fatal(err)
			}
			for id, w := range req["weights"] {
				req["weights"][id] = w * 1.5
			}
			if ops[i].body, err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	c, err := reference(p)
	if err != nil {
		t.Fatal(err)
	}
	if equalDigests(a.sessions[:1], c.sessions[:1]) || equalDigests(a.ledgers[:1], c.ledgers[:1]) {
		t.Fatal("changing a drift left the first session's digests unchanged")
	}
	if !equalDigests(a.ledgers[1:], c.ledgers[1:]) {
		t.Fatal("changing one session's drift changed another session's ledger")
	}
}

// TestPlanDeterministic pins that the seed alone fixes every request.
func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := buildPlan(w, 5, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildPlan(w, 5, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildPlan(w, 6, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		if !equalPlans(a, b) {
			t.Errorf("%s: same seed, different plans", w.name)
		}
		if equalPlans(a, c) {
			t.Errorf("%s: different seeds, same plan", w.name)
		}
		if a.commands < a.snapEvery+2 || a.commands >= 2*a.snapEvery {
			t.Errorf("%s: %d commands per session, snapshot every %d: want exactly one snapshot, followed by a replayed tail",
				w.name, a.commands, a.snapEvery)
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the benchmark: the
// workloads it runs and the metrics it reports.
func TestBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		got, err := workloadByName(w.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		if w.Why != got.why {
			t.Errorf("workload %s: why %q, benchmark says %q", w.Name, w.Why, got.why)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, benchmark has %d", names, len(workloads))
	}
	e2e := map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" || !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
	if !equalMaps(e2e, e2eUnits) {
		t.Errorf("end_to_end %v, benchmark reports %v", e2e, e2eUnits)
	}
	layers := map[string]string{}
	for _, m := range bj.PerLayer {
		layers[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer %s: better %q", m.Name, m.Better)
		}
	}
	if !equalMaps(layers, layerUnits) {
		t.Errorf("per_layer %v, benchmark reports %v", layers, layerUnits)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "contractbench" {
		t.Errorf("paths %v", bj.Paths)
	}
	if strings.Join(bj.Command, " ") != "bash contractbench/run.sh" {
		t.Errorf("command %v", bj.Command)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > maxSeconds {
		t.Errorf("run_seconds %d outside [1, %d]", bj.RunSeconds, maxSeconds)
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func equalDigests(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func equalPlans(a, b *plan) bool {
	enc := func(p *plan) []string {
		var out []string
		for _, cp := range p.clients {
			for _, sp := range cp.sessions {
				out = append(out, string(sp.body))
			}
			for _, o := range cp.ops {
				out = append(out, o.kind.String()+string(o.body))
			}
		}
		return out
	}
	return strings.Join(enc(a), "\n") == strings.Join(enc(b), "\n")
}
