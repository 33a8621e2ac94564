package engine_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/worker"
)

// referenceLedger is the ledger identity suites' reference: the §II round
// loop written out plainly, with no cached views, shards, design cache or
// respond memo. Each round runs the drift, then Policy.Contracts over the
// whole population, then every agent's exact best response (or
// cfg.Responder, clamped like the engine clamps it) in ID order, then the
// Eq. (7) settle. It re-reads the population every round, so it needs no
// drift declarations. cfg.Observers receive the engine's event order:
// OnContracts, OnOutcome per agent, OnRoundEnd.
func referenceLedger(tb testing.TB, pop *engine.Population, cfg engine.Config) []engine.Round {
	tb.Helper()
	ctx := context.Background()
	ledger := make([]engine.Round, 0, cfg.Rounds)
	for r := 0; r < cfg.Rounds; r++ {
		if cfg.Drift != nil {
			cfg.Drift(r, pop)
		}
		if err := pop.Validate(); err != nil {
			tb.Fatalf("reference round %d: %v", r, err)
		}
		contracts, err := cfg.Policy.Contracts(ctx, pop)
		if err != nil {
			tb.Fatalf("reference round %d: %v", r, err)
		}
		for _, ob := range cfg.Observers {
			ob.OnContracts(r, contracts)
		}
		agents := append([]*worker.Agent(nil), pop.Agents...)
		sort.Slice(agents, func(i, j int) bool { return agents[i].ID < agents[j].ID })
		round := engine.Round{Index: r, Outcomes: make([]engine.AgentOutcome, len(agents))}
		for i, a := range agents {
			oc := &round.Outcomes[i]
			*oc = engine.AgentOutcome{AgentID: a.ID, Class: a.Class, Size: a.Size, Weight: pop.Weights[a.ID]}
			c := contracts[a.ID]
			switch {
			case c == nil:
				oc.Excluded = true
			case cfg.Responder != nil:
				y, err := cfg.Responder(r, a, c, pop.Part)
				if err != nil {
					tb.Fatalf("reference round %d agent %s: %v", r, a.ID, err)
				}
				oc.Effort = referenceClamp(y, a, pop.Part)
				oc.Feedback = a.Psi.Eval(oc.Effort)
				oc.Compensation = c.Eval(oc.Feedback)
			default:
				resp, err := a.BestResponse(c, pop.Part)
				if err != nil {
					tb.Fatalf("reference round %d agent %s: %v", r, a.ID, err)
				}
				if resp.Declined {
					oc.Declined = true
				} else {
					oc.Effort, oc.Feedback, oc.Compensation = resp.Effort, resp.Feedback, resp.Compensation
				}
			}
		}
		for _, oc := range round.Outcomes {
			if oc.Excluded || oc.Declined {
				continue
			}
			round.Benefit += oc.Weight * oc.Feedback
			round.Cost += oc.Compensation
		}
		round.Utility = round.Benefit - pop.Mu*round.Cost
		for _, oc := range round.Outcomes {
			for _, ob := range cfg.Observers {
				ob.OnOutcome(r, oc)
			}
		}
		for _, ob := range cfg.Observers {
			if err := ob.OnRoundEnd(round); err != nil {
				tb.Fatalf("reference round %d: %v", r, err)
			}
		}
		ledger = append(ledger, round)
	}
	return ledger
}

// referenceClamp is the Responder clamp: efforts outside [0, min(mδ, apex
// of ψ)] — NaN included — land on the nearest bound.
func referenceClamp(y float64, a *worker.Agent, part effort.Partition) float64 {
	if y < 0 || math.IsNaN(y) {
		return 0
	}
	return math.Min(y, math.Min(part.YMax(), a.Psi.Apex()))
}

// goldenLedgerDigest is the SHA-256 of the JSON-encoded ledger of the
// golden scenario — 30 archetype agents for six rounds under
// structuralDrift (weights rescaled every round, an agent added, one
// removed, the Agents slice reversed) — captured from the whole-population
// round loop the engine ran for Shards=0 before the sharded pipeline
// became its only pipeline.
const goldenLedgerDigest = "a044977a94b94b0bcf3fd2cc8d8fc7fb2f3301ed278a5459e37f9e64e13b67b7"

func ledgerDigest(tb testing.TB, ledger []engine.Round) string {
	tb.Helper()
	b, err := json.Marshal(ledger)
	if err != nil {
		tb.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenLedgerDigest pins the golden scenario's ledger to the digest
// captured from the removed loop, on the reference loop and on the engine
// in the server's configuration (ShardPolicy, design cache, respond memo)
// for Shards 0 (one shard), 1, 2 and 8. TestShardedLedgerIdentical runs
// the same scenario across the other policy and memo combinations
// against the reference loop.
func TestGoldenLedgerDigest(t *testing.T) {
	config := func(pol engine.Policy, shards int) engine.Config {
		return engine.Config{Policy: pol, Rounds: 6, Drift: structuralDrift(t), Cache: engine.NewCache(), Memo: engine.NewRespondMemo(), Shards: shards}
	}
	ref := referenceLedger(t, archetypePopulation(t, 30), config(&designPolicy{}, 0))
	if got := ledgerDigest(t, ref); got != goldenLedgerDigest {
		t.Fatalf("reference loop digest = %s, want %s", got, goldenLedgerDigest)
	}
	for _, shards := range []int{0, 1, 2, 8} {
		ledger, err := engine.RunLedger(context.Background(), archetypePopulation(t, 30), config(&shardDesignPolicy{}, shards))
		if err != nil {
			t.Fatal(err)
		}
		if got := ledgerDigest(t, ledger); got != goldenLedgerDigest {
			t.Errorf("shards=%d: digest %s, want %s", shards, got, goldenLedgerDigest)
		}
	}
}
