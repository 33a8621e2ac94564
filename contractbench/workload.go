package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/experiments"
	"dyncontract/internal/server"
	"dyncontract/internal/synth"
	"dyncontract/internal/worker"
)

// kind is one request kind of the traffic mix.
type kind int

const (
	kindRound kind = iota
	kindDesign
	kindDesignInline
	kindDrift
	kindChurn
	kindInfo
	numKinds
)

var kindNames = [numKinds]string{"round", "design", "design_inline", "drift", "churn", "info"}

func (k kind) String() string { return kindNames[k] }

// command reports whether the kind runs through the session's
// single-writer loop, and so is journaled and counts toward
// -snapshot-every.
func (k kind) command() bool { return k == kindRound || k == kindDrift || k == kindChurn }

// numClients is the number of closed-loop connections: one per core of
// the 2-core reference machine.
const numClients = 2

// workload is one traffic mix. Every size is fixed, so a run with a given
// seed and --seconds sends the same requests and leaves contractd in the
// same state every time.
type workload struct {
	name string
	why  string
	// sessionsPerClient sessions are owned by each client; no session is
	// shared, so no request ever waits behind another client's command.
	sessionsPerClient int
	// warmRounds rounds per session run during set-up, before timing.
	warmRounds int
	// cycle is the per-session op sequence repeated through the measured
	// phase. A client sends each cycle position to all of its sessions in
	// turn before moving to the next position.
	cycle []kind
	// cyclesPerSecond scales the fixed work with --seconds; it is
	// calibrated so that one --seconds of work takes about a second on the
	// 2-core reference machine.
	cyclesPerSecond float64
	// snapshotAt places each session's one auto-snapshot, as a share of
	// the session's commands; recovery decodes it and replays the rest.
	snapshotAt float64
	// driftShare is the share of a session's agents a drift reweights
	// (at least one agent).
	driftShare float64
	// newSession builds the create request and the harvested agents of
	// one session. slot numbers the session within the run and is the
	// same for every seed.
	newSession func(rng *rand.Rand, slot int64, tiny bool) (*sessionPlan, error)
}

var workloads = []*workload{
	{
		name:              "serve-large",
		why:               "several-thousand-agent scale=paper sessions on the default shard setting; the engine round and the ledger snapshot dominate",
		sessionsPerClient: 1,
		warmRounds:        3,
		cycle:             []kind{kindDrift, kindRound, kindDesign, kindInfo, kindDesignInline, kindRound, kindChurn, kindRound, kindDesign, kindInfo},
		cyclesPerSecond:   12,
		snapshotAt:        0.5,
		driftShare:        0.01,
		newSession:        paperSession(2000),
	},
	{
		name:              "many-sessions",
		why:               "many tiny 4-agent sessions with long histories; HTTP, session queue, design batcher and journal dominate",
		sessionsPerClient: 24,
		warmRounds:        100,
		cycle:             []kind{kindRound, kindDesign, kindRound, kindInfo, kindDrift, kindRound, kindChurn, kindDesignInline},
		cyclesPerSecond:   15,
		snapshotAt:        1,
		driftShare:        0.25,
		newSession:        inlineSession,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// sessionPlan is one session: its create request and the agents harvested
// from it, from which every design and join spec is built.
type sessionPlan struct {
	create server.CreateSessionRequest
	body   []byte
	// agents are the session's own agents (ψ, β, ω, class, weight), sorted
	// by ID.
	agents []server.AgentSpec
	// pop is the session's population as contractd builds it.
	pop *engine.Population
}

// op is one pre-encoded request of a client's sequence.
type op struct {
	kind kind
	sess int // index into the client's sessions
	body []byte
}

type clientPlan struct {
	sessions []*sessionPlan
	warm     []op
	ops      []op
}

// plan is the complete, pre-encoded request sequence of one run.
type plan struct {
	clients []*clientPlan
	// commands is the number of journaled commands each session executes,
	// warm-up included; every session executes the same number.
	commands int
	// snapEvery is contractd's -snapshot-every: each session takes exactly
	// one auto-snapshot, at the same command index on every run.
	snapEvery int
}

// sessions lists every session of the plan, client by client.
func (p *plan) sessions() []*sessionPlan {
	var out []*sessionPlan
	for _, cp := range p.clients {
		out = append(out, cp.sessions...)
	}
	return out
}

// ops counts the measured requests of the plan.
func (p *plan) ops() int {
	n := 0
	for _, cp := range p.clients {
		n += len(cp.ops)
	}
	return n
}

// buildPlan derives the run's inputs from the seed alone. tiny shrinks
// populations and work for the benchmark's own tests.
func buildPlan(w *workload, seed int64, seconds int, tiny bool) (*plan, error) {
	cycles := int(math.Round(w.cyclesPerSecond * float64(seconds)))
	sessions := w.sessionsPerClient
	warm := w.warmRounds
	p := &plan{clients: make([]*clientPlan, numClients)}
	if tiny {
		cycles = max(4, cycles/20)
		sessions = min(sessions, 3)
		warm = min(warm, 4)
	}
	// Session populations are independent of one another, so harvest them
	// two at a time: paper-scale pipelines take most of a second each.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, 2)
	for c := range p.clients {
		cp := &clientPlan{sessions: make([]*sessionPlan, sessions)}
		p.clients[c] = cp
		for s := range cp.sessions {
			wg.Add(1)
			go func(c, s int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				rng := rand.New(rand.NewPCG(uint64(seed), uint64(c*1000+s)))
				sp, err := w.newSession(rng, int64(c*100+s+1), tiny)
				if err == nil {
					sp.create.Name = fmt.Sprintf("bench-%d-%d", c, s)
					sp.body, err = json.Marshal(sp.create)
				}
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				cp.sessions[s] = sp
			}(c, s)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for c, cp := range p.clients {
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(100+c)))
		gens := make([]*opGen, len(cp.sessions))
		for s, sp := range cp.sessions {
			gens[s] = &opGen{rng: rng, sp: sp, prefix: fmt.Sprintf("c%ds%d", c, s), driftShare: w.driftShare}
		}
		for r := 0; r < warm; r++ {
			for s := range cp.sessions {
				cp.warm = append(cp.warm, op{kind: kindRound, sess: s})
			}
		}
		for i := 0; i < cycles; i++ {
			for _, k := range w.cycle {
				for s, g := range gens {
					o, err := g.next(k)
					if err != nil {
						return nil, err
					}
					o.sess = s
					cp.ops = append(cp.ops, o)
				}
			}
		}
	}
	p.commands = warm
	for _, k := range w.cycle {
		if k.command() {
			p.commands += cycles
		}
	}
	// At least two commands follow the snapshot, and a second threshold is
	// never reached.
	p.snapEvery = max(p.commands/2+1, min(p.commands-2, int(math.Ceil(w.snapshotAt*float64(p.commands)))))
	return p, nil
}

// opGen encodes one session's requests. It tracks the agents the
// benchmark joined, so leaves only ever remove those and the population
// oscillates around its original size.
type opGen struct {
	rng        *rand.Rand
	sp         *sessionPlan
	prefix     string
	driftShare float64
	joined     []server.AgentSpec
	nextJoin   int
	nextQuery  int
	leaveNext  bool
}

// pick returns a random original agent of the session.
func (g *opGen) pick() server.AgentSpec {
	return g.sp.agents[g.rng.IntN(len(g.sp.agents))]
}

func (g *opGen) next(k kind) (op, error) {
	var v any
	switch k {
	case kindRound, kindInfo:
		return op{kind: k}, nil
	case kindDesign:
		v = server.DesignQueryRequest{AgentID: g.pick().ID}
	case kindDesignInline:
		a := g.pick()
		g.nextQuery++
		a.ID = fmt.Sprintf("%s-q%d", g.prefix, g.nextQuery)
		v = server.DesignQueryRequest{Agent: &a}
	case kindDrift:
		v = server.DriftRequest{Weights: g.reweight()}
	case kindChurn:
		if g.leaveNext && len(g.joined) > 0 {
			v = server.DriftRequest{Remove: []string{g.joined[0].ID}}
			g.joined = g.joined[1:]
		} else {
			a := g.pick()
			g.nextJoin++
			a.ID = fmt.Sprintf("%s-j%d", g.prefix, g.nextJoin)
			a.Weight *= 0.9 + 0.2*g.rng.Float64()
			g.joined = append(g.joined, a)
			v = server.DriftRequest{Add: []server.AgentSpec{a}}
		}
		g.leaveNext = !g.leaveNext
	}
	body, err := json.Marshal(v)
	if err != nil {
		return op{}, err
	}
	return op{kind: k, body: body}, nil
}

// reweight draws fresh, never-repeating weights for driftShare of the
// session's original agents: a fresh weight mints a fresh design
// fingerprint, so every reweighted agent is designed cold next round.
func (g *opGen) reweight() map[string]float64 {
	want := max(1, int(math.Round(g.driftShare*float64(len(g.sp.agents)))))
	out := make(map[string]float64, want)
	for len(out) < want {
		a := g.pick()
		out[a.ID] = a.Weight * (0.5 + g.rng.Float64())
	}
	return out
}

// paperSession builds scale=paper sessions with perClass agents sampled
// per class, the shards field unset as every client sends it today. The
// synthetic trace seed is the session's slot, not the run seed: trace
// seeds change a paper population's community structure and with it the
// cost of a round, while the run seed already varies every request.
func paperSession(perClass int) func(*rand.Rand, int64, bool) (*sessionPlan, error) {
	return func(_ *rand.Rand, seed int64, tiny bool) (*sessionPlan, error) {
		n := perClass
		if tiny {
			n = min(n, 40)
		}
		req := server.CreateSessionRequest{Scale: "paper", Seed: seed, PerClass: n}
		pipe, err := experiments.BuildPipeline(synth.PaperScale(seed))
		if err != nil {
			return nil, fmt.Errorf("harvest %+v: %w", req, err)
		}
		pop, err := pipe.BuildPopulation(experiments.DefaultParams(), n)
		if err != nil {
			return nil, fmt.Errorf("harvest %+v: %w", req, err)
		}
		return &sessionPlan{create: req, agents: specsOf(pop), pop: pop}, nil
	}
}

// inlineSession builds a 4-agent explicit session on m=10 intervals: two
// honest workers, one malicious worker and one community, each with its
// own seeded ψ and β.
func inlineSession(rng *rand.Rand, _ int64, _ bool) (*sessionPlan, error) {
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	psi := func() server.PsiSpec { return server.PsiSpec{R2: u(-0.3, -0.2), R1: u(1.8, 2.2)} }
	req := server.CreateSessionRequest{
		Agents: []server.AgentSpec{
			{ID: "h1", Class: "honest", Psi: psi(), Beta: u(0.8, 1.2), Weight: u(0.6, 1.2)},
			{ID: "h2", Class: "honest", Psi: psi(), Beta: u(0.8, 1.2), Weight: u(0.6, 1.2)},
			{ID: "m1", Class: "malicious", Psi: psi(), Beta: u(0.8, 1.2), Omega: u(0.2, 0.6), Weight: u(0.4, 0.9), Malice: 0.9},
			{ID: "c1", Class: "community", Psi: psi(), Beta: u(0.8, 1.2), Omega: u(0.2, 0.4), Size: 3, Weight: u(0.3, 0.7)},
		},
		M: 10, Delta: 0.2, Mu: 1,
	}
	part, err := effort.NewPartition(req.M, req.Delta)
	if err != nil {
		return nil, err
	}
	pop := &engine.Population{
		Weights:    map[string]float64{},
		MaliceProb: map[string]float64{},
		Part:       part,
		Mu:         req.Mu,
	}
	for i := range req.Agents {
		spec := &req.Agents[i]
		a, err := spec.Agent()
		if err != nil {
			return nil, err
		}
		pop.Agents = append(pop.Agents, a)
		pop.Weights[a.ID] = spec.Weight
		if spec.Malice != 0 {
			pop.MaliceProb[a.ID] = spec.Malice
		}
	}
	if err := pop.Validate(); err != nil {
		return nil, fmt.Errorf("inline session: %w", err)
	}
	agents := append([]server.AgentSpec(nil), req.Agents...)
	sort.Slice(agents, func(i, j int) bool { return agents[i].ID < agents[j].ID })
	return &sessionPlan{create: req, agents: agents, pop: pop}, nil
}

// specsOf harvests wire specs, sorted by ID, from a population.
func specsOf(pop *engine.Population) []server.AgentSpec {
	out := make([]server.AgentSpec, 0, len(pop.Agents))
	for _, a := range pop.Agents {
		out = append(out, server.AgentSpec{
			ID:          a.ID,
			Class:       className(a.Class),
			Psi:         server.PsiSpec{R2: a.Psi.R2, R1: a.Psi.R1, R0: a.Psi.R0},
			Beta:        a.Beta,
			Omega:       a.Omega,
			Size:        a.Size,
			Reservation: a.Reservation,
			Weight:      pop.Weights[a.ID],
			Malice:      pop.MaliceProb[a.ID],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func className(c worker.Class) string {
	switch c {
	case worker.NonCollusiveMalicious:
		return "malicious"
	case worker.CollusiveMalicious:
		return "community"
	default:
		return "honest"
	}
}
