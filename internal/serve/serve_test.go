package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dmt/internal/obs"
	"dmt/internal/sim"
)

// postRun submits one request and decodes the response (or the error body).
func postRun(t *testing.T, client *http.Client, url string, req RunRequest) (int, RunResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, RunResponse{}, e["error"]
	}
	var out RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out, ""
}

func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, now)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestServeSmoke is the acceptance smoke: 100 concurrent submissions of 4
// distinct configurations all complete, at least one rides another's
// flight (coalescing), and every response is bit-identical to a direct
// sim.Run of the same configuration.
func TestServeSmoke(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	srv := New(Config{QueueDepth: 16, Workers: 4, JobTimeout: 2 * time.Minute, Registry: reg})
	ts := httptest.NewServer(srv.Handler())

	reqs := make([]RunRequest, 4)
	for i := range reqs {
		reqs[i] = RunRequest{
			Env: "native", Design: "dmt", Workload: "GUPS", THP: true,
			Ops: 20_000, Seed: int64(i + 1), WSMiB: 24, Workers: 2, Shards: 2,
		}
	}

	const n = 100
	type reply struct {
		status int
		resp   RunResponse
		msg    string
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp, msg := postRun(t, ts.Client(), ts.URL, reqs[i%len(reqs)])
			replies[i] = reply{status, resp, msg}
		}(i)
	}
	wg.Wait()

	// Ground truth: the same configurations run directly.
	want := make([]RunResponse, len(reqs))
	for i, rq := range reqs {
		cfg, err := rq.Config(0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ResponseFor(res)
	}

	coalescedSeen := 0
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, r.status, r.msg)
		}
		got := r.resp
		if got.Coalesced {
			coalescedSeen++
		}
		got.Coalesced = false
		if !reflect.DeepEqual(got, want[i%len(reqs)]) {
			t.Fatalf("request %d: served result differs from direct sim.Run:\ngot  %+v\nwant %+v",
				i, got, want[i%len(reqs)])
		}
	}
	if hits := reg.Snapshot()["serve.coalesced"]; hits == 0 {
		t.Fatalf("100 concurrent submissions of 4 configs recorded no coalescing hits")
	} else {
		t.Logf("coalescing hits: %d of %d requests (%d responses flagged)", hits, n, coalescedSeen)
	}

	ts.Close()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	srv.Close()
	waitForGoroutines(t, goroutinesBefore)
}

// TestServeDrain: draining finishes in-flight jobs, rejects new ones with
// 503, and leaks no goroutines.
func TestServeDrain(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	srv := New(Config{QueueDepth: 4, Workers: 1, Registry: reg})
	ts := httptest.NewServer(srv.Handler())

	slow := RunRequest{
		Env: "native", Design: "vanilla", Workload: "GUPS", THP: true,
		Ops: 800_000, Seed: 3, WSMiB: 24, Workers: 1, Shards: 1,
	}
	type reply struct {
		status int
		resp   RunResponse
	}
	inflight := make(chan reply, 1)
	go func() {
		status, resp, _ := postRun(t, ts.Client(), ts.URL, slow)
		inflight <- reply{status, resp}
	}()

	// Give the job time to be admitted, then drain.
	waitFor(t, time.Second, func() bool { return reg.Snapshot()["serve.admitted"] >= 1 })
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitFor(t, time.Second, func() bool { return srv.Draining() })

	// New work is rejected while draining.
	rejected := slow
	rejected.Seed = 99
	if status, _, _ := postRun(t, ts.Client(), ts.URL, rejected); status != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: status %d, want 503", status)
	}
	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz during drain: status %d, want 503", resp.StatusCode)
		}
	}

	// The in-flight job still completes, and the drain then finishes.
	r := <-inflight
	if r.status != http.StatusOK {
		t.Fatalf("in-flight job during drain: status %d, want 200", r.status)
	}
	if r.resp.Ops != slow.Ops {
		t.Fatalf("in-flight job returned %d ops, want %d", r.resp.Ops, slow.Ops)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	srv.Close()
	waitForGoroutines(t, goroutinesBefore)
}

// TestServeQueueFull: with one worker and one queue slot, a third distinct
// concurrent job must be rejected with 429.
func TestServeQueueFull(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	srv := New(Config{QueueDepth: 1, Workers: 1, Registry: reg})
	ts := httptest.NewServer(srv.Handler())

	statuses := make([]int, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := RunRequest{
				Env: "native", Design: "vanilla", Workload: "GUPS", THP: true,
				Ops: 20_000_000, Seed: int64(i + 1), WSMiB: 24, Workers: 1, Shards: 1,
			}
			statuses[i], _, _ = postRun(t, ts.Client(), ts.URL, req)
		}(i)
	}
	// One job can run, one can queue; the third submission must bounce.
	waitFor(t, 10*time.Second, func() bool { return reg.Snapshot()["serve.rejected_full"] >= 1 })

	// Abort the slow runs: Close cancels them, their waiters get 503s.
	srv.Close()
	wg.Wait()
	got429 := 0
	for _, s := range statuses {
		if s == http.StatusTooManyRequests {
			got429++
		}
	}
	if got429 == 0 {
		t.Fatalf("no 429 among concurrent submissions beyond queue capacity: %v", statuses)
	}
	ts.Close()
	waitForGoroutines(t, goroutinesBefore)
}

// TestServeClientCancel: a requester disconnecting cancels the orphaned
// run (context.Canceled, counted as cancelled+abandoned) without poisoning
// the prototype cache — the same machine then serves a fresh request whose
// result matches a direct run.
func TestServeClientCancel(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	srv := New(Config{QueueDepth: 4, Workers: 2, Registry: reg})
	ts := httptest.NewServer(srv.Handler())

	big := RunRequest{
		Env: "native", Design: "dmt", Workload: "GUPS", THP: true,
		Ops: 40_000_000, Seed: 5, WSMiB: 24, Workers: 1, Shards: 2,
	}
	body, _ := json.Marshal(big)
	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(httpReq)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("cancelled request got status %d", resp.StatusCode)
		}
		errc <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return reg.Snapshot()["serve.admitted"] >= 1 })
	cancel()
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancelled request: %v", err)
	}
	// The orphaned flight is cancelled and the worker freed.
	waitFor(t, 10*time.Second, func() bool {
		s := reg.Snapshot()
		return s["serve.abandoned"] >= 1 && s["serve.cancelled"] >= 1
	})

	// Same build, sane trace length: must succeed and match a direct run.
	small := big
	small.Ops = 20_000
	status, got, msg := postRun(t, ts.Client(), ts.URL, small)
	if status != http.StatusOK {
		t.Fatalf("post-cancel run: status %d (%s)", status, msg)
	}
	cfg, err := small.Config(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("direct post-cancel run: %v", err)
	}
	want := ResponseFor(res)
	got.Coalesced = false
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-cancel served result differs from direct run:\ngot  %+v\nwant %+v", got, want)
	}

	ts.Close()
	srv.Drain(context.Background())
	srv.Close()
	waitForGoroutines(t, goroutinesBefore)
}

// TestServeValidation: malformed and nonsensical requests are rejected with
// 400 before touching the queue.
func TestServeValidation(t *testing.T) {
	srv := New(Config{QueueDepth: 1, Workers: 1, MaxOps: 1000, Registry: obs.NewRegistry()})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  RunRequest
	}{
		{"bad env", RunRequest{Env: "bare-metal", Design: "dmt", Workload: "GUPS"}},
		{"bad design", RunRequest{Env: "native", Design: "speculative", Workload: "GUPS"}},
		{"bad workload", RunRequest{Env: "native", Design: "dmt", Workload: "nope"}},
		{"negative ops", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", Ops: -1}},
		{"ops over cap", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", Ops: 2000}},
		{"negative workers", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", Workers: -2}},
		{"negative shards", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", Shards: -2}},
		{"negative timeout", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", TimeoutMs: -5}},
		{"negative cache scale", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", CacheScale: -1}},
		// Scales the cache geometry cannot take failed the build: a 500.
		{"cache scale past L1D sets", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", CacheScale: 128}},
		{"non-power-of-two cache scale", RunRequest{Env: "virt", Design: "pvdmt", Workload: "GUPS", CacheScale: 24}},
		// More shards than ops was admitted and built one clone per shard.
		{"shards over ops", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", Ops: 100, Shards: 1 << 20}},
		{"shards over default ops", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", Shards: 200_001}},
		{"workers over ops", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", Ops: 100, Workers: 101}},
		// A 64 GiB working set was admitted and took about 25 s to build.
		{"working set over cap", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", WSMiB: 65536}},
		{"working set one past cap", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", WSMiB: 16<<10 + 1}},
		{"working set bytes wrap to zero", RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", WSMiB: 1 << 44}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, msg := postRun(t, ts.Client(), ts.URL, tc.req)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", status, msg)
			}
			if msg == "" {
				t.Fatal("400 without an error message")
			}
		})
	}

	// Metrics and health endpoints respond while idle.
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestServeLivezReadyz: liveness stays 200 through a drain (in-flight work
// is still finishing) while readiness — and its back-compat alias /healthz
// — flips to 503, so a coordinator stops routing without killing the
// worker.
func TestServeLivezReadyz(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	srv := New(Config{QueueDepth: 4, Workers: 1, Registry: reg})
	ts := httptest.NewServer(srv.Handler())

	get := func(path string) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"/livez", "/readyz", "/healthz"} {
		if code := get(path); code != http.StatusOK {
			t.Fatalf("%s while idle: status %d, want 200", path, code)
		}
	}

	// Keep one slow job in flight so the drain below has work to wait on —
	// the liveness probe must stay green exactly in that window.
	slow := RunRequest{
		Env: "native", Design: "vanilla", Workload: "GUPS", THP: true,
		Ops: 800_000, Seed: 7, WSMiB: 24, Workers: 1, Shards: 1,
	}
	inflight := make(chan int, 1)
	go func() {
		status, _, _ := postRun(t, ts.Client(), ts.URL, slow)
		inflight <- status
	}()
	waitFor(t, time.Second, func() bool { return reg.Snapshot()["serve.admitted"] >= 1 })
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitFor(t, time.Second, func() bool { return srv.Draining() })

	if code := get("/livez"); code != http.StatusOK {
		t.Fatalf("/livez while draining: status %d, want 200 (draining is live)", code)
	}
	for _, path := range []string{"/readyz", "/healthz"} {
		if code := get(path); code != http.StatusServiceUnavailable {
			t.Fatalf("%s while draining: status %d, want 503", path, code)
		}
	}

	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("in-flight job during drain: status %d, want 200", status)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	srv.Close()
	waitForGoroutines(t, goroutinesBefore)
}

// TestServeAbortedTyped: a run the server abandons mid-flight surfaces as
// ErrAborted — typed and retryable — still carrying context.Canceled, and
// the HTTP layer answers 503 with Retry-After so a retry classifier sees a
// transient failure, not a permanent one.
func TestServeAbortedTyped(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	srv := New(Config{QueueDepth: 4, Workers: 1, Registry: reg})

	cfg, err := (&RunRequest{
		Env: "native", Design: "vanilla", Workload: "GUPS", THP: true,
		Ops: 40_000_000, Seed: 11, WSMiB: 24, Workers: 1, Shards: 1,
	}).Config(0)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := srv.Submit(context.Background(), cfg)
		errc <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return reg.Snapshot()["serve.admitted"] >= 1 })
	srv.Close() // abrupt shutdown cancels the in-flight run
	got := <-errc
	if !errors.Is(got, ErrAborted) {
		t.Fatalf("aborted run returned %v, want errors.Is(_, ErrAborted)", got)
	}
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("aborted run returned %v, want it to still carry context.Canceled", got)
	}
	if reg.Snapshot()["serve.cancelled"] != 1 {
		t.Fatalf("serve.cancelled = %d, want 1", reg.Snapshot()["serve.cancelled"])
	}
	waitForGoroutines(t, goroutinesBefore)

	// Same condition over HTTP: 503 + Retry-After, error body names the
	// abort.
	srv2 := New(Config{QueueDepth: 4, Workers: 1, Registry: obs.NewRegistry()})
	ts := httptest.NewServer(srv2.Handler())
	body, _ := json.Marshal(RunRequest{
		Env: "native", Design: "vanilla", Workload: "GUPS", THP: true,
		Ops: 40_000_000, Seed: 12, WSMiB: 24, Workers: 1, Shards: 1,
	})
	type httpReply struct {
		status     int
		retryAfter string
		msg        string
	}
	replyc := make(chan httpReply, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("POST /run: %v", err)
			replyc <- httpReply{}
			return
		}
		defer resp.Body.Close()
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		replyc <- httpReply{resp.StatusCode, resp.Header.Get("Retry-After"), e["error"]}
	}()
	waitFor(t, 5*time.Second, func() bool { return srv2.reg.Snapshot()["serve.admitted"] >= 1 })
	srv2.Close()
	r := <-replyc
	if r.status != http.StatusServiceUnavailable {
		t.Fatalf("aborted run over HTTP: status %d (%s), want 503", r.status, r.msg)
	}
	if r.retryAfter == "" {
		t.Fatal("aborted run over HTTP: no Retry-After header")
	}
	if !strings.Contains(r.msg, "aborted") {
		t.Fatalf("aborted run over HTTP: error %q does not name the abort", r.msg)
	}
	ts.Close() // also closes the test client's idle keep-alive conns
	waitForGoroutines(t, goroutinesBefore)
}

// TestCanonicalKeyStable: the durable cell identity is normalization-
// invariant (defaults applied or not, Workers ignored) and distinguishes
// every result-determining field.
func TestCanonicalKeyStable(t *testing.T) {
	req := RunRequest{Env: "native", Design: "dmt", Workload: "GUPS", THP: true,
		Ops: 20_000, Seed: 3, WSMiB: 24, Shards: 2}
	cfg, err := req.Config(0)
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalKey(cfg)
	want := "v1 env=native design=dmt thp=true wl=GUPS ws=25165824 scale=16 ops=20000 seed=3 shards=2 verify=false"
	if key != want {
		t.Fatalf("CanonicalKey = %q, want %q", key, want)
	}
	workers := cfg
	workers.Workers = 8
	if CanonicalKey(workers) != key {
		t.Fatal("CanonicalKey must ignore Workers (scheduling only)")
	}
	if CanonicalKey(cfg.Normalized()) != key {
		t.Fatal("CanonicalKey must be normalization-invariant")
	}
	seed := cfg
	seed.Seed = 4
	if CanonicalKey(seed) == key {
		t.Fatal("CanonicalKey must distinguish seeds")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
