package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmt/internal/obs"
	"dmt/internal/serve"
	"dmt/internal/sim"
)

// serve_sweep drives serve.Server.Handler() over loopback HTTP in a closed
// loop: two client goroutines on two keep-alive connections, each sending
// its next POST /run only after the previous one answered. One sweep sends
// every config twice, first in a seeded order and then again in the same
// order, starting from an empty prototype cache, so the first submission
// of each config pays a cold build and the second a clone.

type serveConfig struct{ env, design, workload string }

// serveConfigs spans the three environments, all ten designs and all seven
// workloads. They are fewer than the prototype cache's 16 entries, so no
// second submission finds its prototype evicted.
var serveConfigs = []serveConfig{
	{"native", "vanilla", "GUPS"}, {"native", "dmt", "Redis"}, {"native", "ecpt", "BTree"},
	{"native", "fpt", "Memcached"}, {"native", "victima", "Canneal"}, {"native", "asap", "XSBench"},
	{"virt", "vanilla", "Redis"}, {"virt", "shadow", "GUPS"}, {"virt", "pvdmt", "BTree"},
	{"virt", "agile", "Canneal"}, {"virt", "utopia", "Graph500"},
	{"nested", "vanilla", "XSBench"}, {"nested", "pvdmt", "Graph500"},
}

const (
	serveOps          = 20_000
	serveWSMiB        = 128
	serveClients      = 2
	serveSetupRepeats = 200
)

func (c serveConfig) String() string { return c.env + "/" + c.design + "/" + c.workload }

func (c serveConfig) request(seed int64, ops int, verify bool) serve.RunRequest {
	return serve.RunRequest{
		Env: c.env, Design: c.design, Workload: c.workload,
		Ops: ops, Seed: seed, WSMiB: serveWSMiB, Verify: verify,
	}
}

// server is one running service on a loopback listener.
type server struct {
	srv  *serve.Server
	reg  *obs.Registry
	hs   *http.Server
	url  string
	done chan struct{}
}

func startServer() (*server, error) {
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{Workers: 2, Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, reg: reg, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return s, nil
}

// stop closes the listener and connections, then the job workers, and
// waits for the serving goroutine to return.
func (s *server) stop() {
	s.hs.Close()
	<-s.done
	s.srv.Close()
}

// ready waits for one /readyz answer over client.
func (s *server) ready(client *http.Client) error {
	resp, err := client.Get(s.url + "/readyz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/readyz: %s", resp.Status)
	}
	return nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients, DisableCompression: true,
	}}
}

// reply is one request's outcome.
type reply struct {
	cfg    int
	lat    time.Duration
	status int
	err    error
	resp   serve.RunResponse
}

// post sends one request and decodes the answer.
func (s *server) post(client *http.Client, req serve.RunRequest) (serve.RunResponse, int, error) {
	var out serve.RunResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, 0, err
	}
	resp, err := client.Post(s.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, resp.StatusCode, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return out, resp.StatusCode, json.Unmarshal(b, &out)
}

type servePhase struct {
	rates []float64 // per sweep: completed requests per second
	lats  []float64 // per request, ms
	cache sim.BuildCacheStats
}

func runServe(o options) (*report, error) {
	const name = "serve_sweep"
	rep := &report{}
	chk, err := newChecker(name, o)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	client := newClient()
	defer client.CloseIdleConnections()

	// Set-up: server start until the first readiness answer, repeated.
	var setups []float64
	for r := 0; r < serveSetupRepeats; r++ {
		runtime.GC()
		t0 := time.Now()
		sp := tr.begin("serve.start", -1, int64(r))
		s, err := startServer()
		if err == nil {
			err = s.ready(client)
		}
		tr.end(sp)
		d := time.Since(t0)
		if s != nil {
			client.CloseIdleConnections()
			s.stop()
		}
		if err != nil {
			return nil, fmt.Errorf("starting server: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	rep.add("setup_s", median(setups))
	rep.lines = append(rep.lines, spreadLine("setup_s", setups, "s"))

	s, err := startServer()
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	defer s.stop()
	seeds := make([]int64, len(serveConfigs))
	for i := range seeds {
		seeds[i] = splitmix(o.seed, 200+i)
	}
	order := rand.New(rand.NewSource(o.seed))

	ps, err := measurePhases(o, tr, func(ph *servePhase, d time.Duration, tr *tracer) {
		s.measure(ph, client, seeds, order, d, tr, chk)
	})
	if err != nil {
		return nil, err
	}
	ph := ps.measured
	rep.add("work_per_s", median(ph.rates))
	rep.add("job_p50_ms", percentile(ph.lats, 50))
	rep.add("job_p90_ms", percentile(ph.lats, 90))
	rep.linef("work unit and job: one completed POST /run (%d ops, %d MiB working set); %d clients, closed loop", serveOps, serveWSMiB, serveClients)
	rep.lines = append(rep.lines, spreadLine("work_per_s", ph.rates, "1/s"), spreadLine("request_ms", ph.lats, "ms"))

	// The oracle-armed requests, after the measured sweeps so they cannot
	// warm its prototype cache.
	for i, c := range serveConfigs {
		resp, _, err := s.post(client, c.request(seeds[i], verifyOps, true))
		switch {
		case err != nil:
			chk.fail("%v verify: %v", c, err)
		case resp.Mismatches != 0 || resp.Checked == 0:
			chk.fail("%v verify: %d mismatches in %d checks", c, resp.Mismatches, resp.Checked)
		default:
			chk.attempted++
		}
	}

	if o.trace {
		serveLayers(rep, tr, s, ph, seeds)
		addTraced(rep, tr, ps, func(p servePhase) []float64 { return p.rates }, name, o.seed)
	}
	return rep, chk.finish(rep, o.record)
}

// measure runs sweeps until the duration is spent.
func (s *server) measure(ph *servePhase, client *http.Client, seeds []int64, order *rand.Rand, d time.Duration, tr *tracer, chk *checker) {
	deadline := time.Now().Add(d)
	for sweep := 0; sweep == 0 || time.Now().Before(deadline); sweep++ {
		// Each sweep starts cold.
		sim.ResetBuildCache()

		perm := order.Perm(len(serveConfigs))
		list := append(perm, perm...)
		replies := make([]reply, len(list))
		var next atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < serveClients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(list) {
						return
					}
					ci := list[i]
					sp := tr.begin("serve.request", -1, int64(len(ph.lats)+i))
					start := time.Now()
					resp, status, err := s.post(client, serveConfigs[ci].request(seeds[ci], serveOps, false))
					replies[i] = reply{cfg: ci, lat: time.Since(start), status: status, err: err, resp: resp}
					tr.end(sp)
				}
			}()
		}
		wg.Wait()
		el := time.Since(t0)
		done := 0
		for _, r := range replies {
			key := serveConfigs[r.cfg].String()
			if r.err != nil {
				chk.fail("%s: status %d: %v", key, r.status, r.err)
				continue
			}
			chk.observe(key, responseDigest(&r.resp))
			ph.lats = append(ph.lats, ms(r.lat))
			done++
		}
		ph.rates = append(ph.rates, float64(done)/el.Seconds())
		ph.foldCache()
	}
}

// foldCache adds the prototype cache's counters to the phase's totals.
func (ph *servePhase) foldCache() {
	st := sim.ReadBuildCacheStats()
	ph.cache.Hits += st.Hits
	ph.cache.Misses += st.Misses
	ph.cache.BuildNs += st.BuildNs
	ph.cache.CloneNs += st.CloneNs
}

// serveLayers reports the service's own counters, the per-request encode
// cost, and the engine layers of every config replayed outside the server.
func serveLayers(rep *report, tr *tracer, s *server, ph servePhase, seeds []int64) {
	snap := s.reg.Snapshot()
	runMs := float64(snap["serve.run_ns"]) / 1e6 / float64(snap["serve.completed"])
	rep.add("serve.run_ms", runMs)
	rep.add("serve.coalesced", float64(snap["serve.coalesced"]))
	var lat float64
	for _, l := range ph.lats {
		lat += l
	}
	// What a request spends outside its simulation: queue wait, decode,
	// encode and loopback transport.
	rep.add("serve.queue_wait_ms", lat/float64(len(ph.lats))-runMs)
	c := ph.cache
	rep.add("sim.build_ms", float64(c.BuildNs)/1e6/float64(c.Misses))
	rep.add("sim.protocache_hit_ratio", float64(c.Hits)/float64(c.Hits+c.Misses))

	cfgs := make([]sim.Config, len(serveConfigs))
	jobs := make([]jobStat, 0, len(serveConfigs))
	var encode time.Duration
	encodes := 0
	for i, sc := range serveConfigs {
		req := sc.request(seeds[i], serveOps, false)
		cfg, err := req.Config(0)
		if err != nil {
			rep.linef("FAIL %v: %v", sc, err)
			rep.attempted++
			rep.failed++
			continue
		}
		cfgs[i] = cfg
		root := tr.begin("bench.job", -1, int64(i))
		sp := tr.begin("sim.build", root, int64(i))
		p, err := sim.NewPrototype(cfg)
		tr.end(sp)
		var js jobStat
		if err == nil {
			js, err = runJob(p, cfg, tr, root, int64(i))
		}
		if err == nil {
			// The handler's response path: flatten and encode.
			for k := 0; k < 16; k++ {
				t0 := time.Now()
				_, err = json.Marshal(serve.ResponseFor(js.res))
				d := time.Since(t0)
				tr.record("serve.encode", root, int64(i), d)
				encode += d
				encodes++
			}
		}
		tr.end(root)
		rep.attempted++
		if err != nil {
			rep.linef("FAIL %v: %v", sc, err)
			rep.failed++
			continue
		}
		js.cfg = i
		jobs = append(jobs, js)
	}
	if encodes > 0 {
		rep.add("serve.encode_us", float64(encode.Nanoseconds())/1e3/float64(encodes))
	}
	if len(jobs) == len(cfgs) {
		engineLayers(rep, tr, cfgs, jobs)
	}
}
