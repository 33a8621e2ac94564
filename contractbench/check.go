package main

import (
	"context"
	"net/http/httptest"
	"time"

	"dyncontract/internal/server"
)

// refResult is the in-process reference replay of a plan.
type refResult struct {
	sessions [][]byte // response digests, as target.sessionDigests
	ledgers  [][]byte // GET …/rounds digests
	failed   int
}

// reference replays the plan's exact request sequence against an
// in-process server built with server.New behind httptest, with no
// journal, metrics or logger. A session's ledger depends only on the
// order of its own commands, which each client fixes, so the reference
// must produce the same responses and ledgers as the live contractd.
func reference(p *plan) (refResult, error) {
	// Batches never have company (see batchWindow), so a near-zero window
	// only saves time; it cannot change a response.
	srv := server.New(server.Config{BatchWindow: time.Microsecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Drain(ctx) // every request has been answered; nothing is left to drain
	}()
	t, err := createSessions(ts.URL, p)
	if err != nil {
		return refResult{}, err
	}
	defer t.close()
	var ref refResult
	for _, pick := range []func(*clientPlan) []op{
		func(cp *clientPlan) []op { return cp.warm },
		func(cp *clientPlan) []op { return cp.ops },
	} {
		r := t.drive(t.prepare(p, pick))
		if r.err != nil {
			return refResult{}, r.err
		}
		for _, ss := range r.samples {
			for _, s := range ss {
				if !s.ok() {
					ref.failed++
				}
			}
		}
	}
	ref.sessions = t.sessionDigests()
	if ref.ledgers, err = t.ledgerDigests(); err != nil {
		return refResult{}, err
	}
	return ref, nil
}
