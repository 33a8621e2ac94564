package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dyncontract/internal/server"
)

// conn is one closed-loop client: a single keep-alive connection that
// sends its next request only after the previous response body has been
// read in full.
type conn struct {
	hc     *http.Client
	base   string
	client int
	seq    uint64
	buf    bytes.Buffer
}

func newConn(base string, client int) *conn {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base, client: client}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// requestIDPrefix marks the trace IDs the benchmark's clients mint.
const requestIDPrefix = "c0de"

// requestID is the X-Request-Id of the client's next request: a literal
// 32-hex trace ID that encodes the request kind, so a traced run can tell
// drift from churn spans on the shared drift route.
func (c *conn) requestID(k kind) string {
	c.seq++
	return fmt.Sprintf("%s%02x%02x%024x", requestIDPrefix, int(k), c.client, c.seq)
}

// kindOfTrace inverts requestID; ok is false for traces the client did
// not start (design batches).
func kindOfTrace(id string) (kind, bool) {
	rest, ok := strings.CutPrefix(id, requestIDPrefix)
	if !ok || len(rest) != 28 {
		return 0, false
	}
	k, err := strconv.ParseUint(rest[:2], 16, 8)
	if err != nil || k >= uint64(numKinds) {
		return 0, false
	}
	return kind(k), true
}

// do sends one request and reads the whole response. The returned body
// aliases the connection's buffer until the next call.
func (c *conn) do(method, url string, k kind, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-Id", c.requestID(k))
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// sample is one measured request.
type sample struct {
	kind   kind
	status int // 0 on a transport error
	lat    time.Duration
}

func (s sample) ok() bool { return s.status >= 200 && s.status < 300 }

// target is one live session set: the session IDs of each client, and a
// running digest of each session's responses.
type target struct {
	base    string
	ids     [][]string
	digests [][]hash.Hash
	conns   []*conn // one keep-alive connection per client
}

// close closes the clients' idle connections.
func (t *target) close() {
	for _, cn := range t.conns {
		cn.close()
	}
}

// createSessions creates every session of the plan, each client creating
// its own concurrently, and starts their response digests. A session's
// agent count must match the harvested population.
func createSessions(base string, p *plan) (*target, error) {
	n := len(p.clients)
	t := &target{base: base, ids: make([][]string, n), digests: make([][]hash.Hash, n), conns: make([]*conn, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c, cp := range p.clients {
		t.ids[c] = make([]string, len(cp.sessions))
		t.digests[c] = make([]hash.Hash, len(cp.sessions))
		t.conns[c] = newConn(base, c)
		wg.Add(1)
		go func(c int, cp *clientPlan) {
			defer wg.Done()
			cn := t.conns[c]
			for s, sp := range cp.sessions {
				status, body, err := cn.do(http.MethodPost, base+"/v1/sessions", kindRound, sp.body)
				if err != nil || status != http.StatusCreated {
					errs[c] = fmt.Errorf("create session %s: status %d: %v %s", sp.create.Name, status, err, body)
					return
				}
				var created server.CreateSessionResponse
				if err := json.Unmarshal(body, &created); err != nil {
					errs[c] = fmt.Errorf("create session %s: %w", sp.create.Name, err)
					return
				}
				if created.Agents != len(sp.agents) {
					errs[c] = fmt.Errorf("session %s has %d agents, harvested %d", created.ID, created.Agents, len(sp.agents))
					return
				}
				t.ids[c][s] = created.ID
				t.digests[c][s] = sha256.New()
			}
		}(c, cp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// prepared is one request with its URL resolved.
type prepared struct {
	op
	method, url string
}

// prepare resolves each client's ops against the live session IDs, so the
// measured loop does no formatting.
func (t *target) prepare(p *plan, pick func(*clientPlan) []op) [][]prepared {
	out := make([][]prepared, len(p.clients))
	for c, cp := range p.clients {
		ops := pick(cp)
		out[c] = make([]prepared, len(ops))
		for i, o := range ops {
			path := t.base + "/v1/sessions/" + t.ids[c][o.sess]
			pr := prepared{op: o, method: http.MethodPost}
			switch o.kind {
			case kindRound:
				pr.url = path + "/rounds"
			case kindDesign, kindDesignInline:
				pr.url = path + "/design"
			case kindDrift, kindChurn:
				pr.url = path + "/drift"
			case kindInfo:
				pr.method, pr.url = http.MethodGet, path
			}
			out[c][i] = pr
		}
	}
	return out
}

// driveResult is one closed-loop phase.
type driveResult struct {
	samples [][]sample // per client, in send order
	wall    time.Duration
	// rounds keeps the first round response bodies, the inputs of the
	// encode timing.
	rounds [][]byte
	err    error
}

// drive runs every client's requests in a closed loop, one connection per
// client, and folds each response into its session's digest. Info
// responses carry journal positions, which differ between a journaled
// server and the reference, so they stay out of the digest.
func (t *target) drive(reqs [][]prepared) driveResult {
	res := driveResult{samples: make([][]sample, len(reqs))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := range reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := t.conns[c]
			out := make([]sample, len(reqs[c]))
			var rounds [][]byte
			for i, pr := range reqs[c] {
				t0 := time.Now()
				status, body, err := cn.do(pr.method, pr.url, pr.kind, pr.body)
				out[i] = sample{kind: pr.kind, status: status, lat: time.Since(t0)}
				if err != nil {
					mu.Lock()
					if res.err == nil {
						res.err = err
					}
					mu.Unlock()
					continue
				}
				if pr.kind == kindInfo {
					continue
				}
				h := t.digests[c][pr.sess]
				fmt.Fprintf(h, "%d %d %d\n", pr.kind, status, len(body))
				h.Write(body)
				if pr.kind == kindRound && len(rounds) < 64 {
					rounds = append(rounds, append([]byte(nil), body...))
				}
			}
			mu.Lock()
			res.samples[c] = out
			res.rounds = append(res.rounds, rounds...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// sessionDigests returns each session's response digest, client by client.
func (t *target) sessionDigests() [][]byte {
	var out [][]byte
	for _, hs := range t.digests {
		for _, h := range hs {
			out = append(out, h.Sum(nil))
		}
	}
	return out
}

// ledgerDigests fetches GET …/rounds of every session and hashes each body
// as it streams in.
func (t *target) ledgerDigests() ([][]byte, error) {
	hc := &http.Client{Timeout: 5 * time.Minute}
	var out [][]byte
	for _, ids := range t.ids {
		for _, id := range ids {
			resp, err := hc.Get(t.base + "/v1/sessions/" + id + "/rounds")
			if err != nil {
				return nil, err
			}
			h := sha256.New()
			_, err = io.Copy(h, resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("GET %s rounds: status %d", id, resp.StatusCode)
			}
			out = append(out, h.Sum(nil))
		}
	}
	return out, nil
}
