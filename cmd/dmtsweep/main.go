// Command dmtsweep drives a fault-tolerant distributed sweep: it expands
// a configuration template (env × design × workload × THP × seed) into
// cells, schedules them across a fleet of dmtserved workers, and survives
// worker loss, drains, stragglers, and its own restarts.
//
// Usage:
//
//	dmtsweep [-workers http://a:7677,http://b:7677] [-store DIR]
//	         [-envs native,virt] [-designs vanilla,dmt] [-workloads GUPS]
//	         [-thp true] [-seeds 1,2,3] [-ops N] [-ws-mib N]
//	         [-cache-scale N] [-shards N] [-verify]
//	         [-concurrency N] [-cell-timeout 2m] [-max-attempts 4]
//	         [-backoff-base 100ms] [-backoff-max 5s] [-hedge-after D]
//	         [-fail-threshold 3] [-cooldown 5s] [-no-local]
//	         [-out FILE] [-quiet]
//
// With -store, completed cells are durable: a restarted sweep re-runs
// only what is missing and produces bit-identical results (DESIGN.md
// §12). With no -workers, every cell runs in-process. Per-cell progress
// streams to stderr; the machine-readable result JSON goes to -out (or
// stdout). Exit status: 0 all cells completed, 1 any cell failed or the
// sweep was interrupted, 2 bad flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dmt/internal/obs"
	"dmt/internal/sim"
	"dmt/internal/store"
	"dmt/internal/sweep"
)

type cliFlags struct {
	workers   []string
	storeDir  string
	envs      []string
	designs   []string
	workloads []string
	thp       []bool
	seeds     []int64

	ops        int
	wsMiB      int
	cacheScale int
	shards     int
	verify     bool

	concurrency   int
	cellTimeout   time.Duration
	maxAttempts   int
	backoffBase   time.Duration
	backoffMax    time.Duration
	hedgeAfter    time.Duration
	failThreshold int
	cooldown      time.Duration
	noLocal       bool

	out   string
	quiet bool
}

// splitList parses a comma-separated flag value, trimming blanks so
// "a, b," and "a,b" mean the same fleet.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range splitList(s) {
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: %q is not an integer", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseBools(s, name string) ([]bool, error) {
	var out []bool
	for _, part := range splitList(s) {
		v, err := strconv.ParseBool(part)
		if err != nil {
			return nil, fmt.Errorf("%s: %q is not a boolean", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// validate rejects nonsensical sizing up front (exit 2), mirroring the
// other dmt commands. Template-level validation (unknown envs/designs)
// happens at expansion and is also exit 2 — before any work is scheduled.
func (f cliFlags) validate() error {
	switch {
	case len(f.workers) == 0 && f.noLocal:
		return fmt.Errorf("-no-local requires at least one -workers URL")
	case f.ops < 0:
		return fmt.Errorf("-ops must be >= 0 (got %d)", f.ops)
	case f.wsMiB < 0:
		return fmt.Errorf("-ws-mib must be >= 0 (got %d)", f.wsMiB)
	case f.shards < 0:
		return fmt.Errorf("-shards must be >= 0 (got %d)", f.shards)
	case f.concurrency < 0:
		return fmt.Errorf("-concurrency must be >= 0 (got %d)", f.concurrency)
	case f.maxAttempts < 0:
		return fmt.Errorf("-max-attempts must be >= 0 (got %d)", f.maxAttempts)
	case f.cellTimeout < 0 || f.backoffBase < 0 || f.backoffMax < 0 ||
		f.hedgeAfter < 0 || f.cooldown < 0:
		return fmt.Errorf("durations must be >= 0")
	case f.failThreshold < 0:
		return fmt.Errorf("-fail-threshold must be >= 0 (got %d)", f.failThreshold)
	}
	if err := sim.CheckCacheScale(f.cacheScale); err != nil {
		return fmt.Errorf("-cache-scale: %w", err)
	}
	if err := sim.CheckWS(f.wsMiB); err != nil {
		return fmt.Errorf("-ws-mib: %w", err)
	}
	if err := sim.CheckShards(sim.Config{Ops: f.ops, Shards: f.shards}); err != nil {
		return fmt.Errorf("-shards: %w", err)
	}
	for _, w := range f.workers {
		if !strings.HasPrefix(w, "http://") && !strings.HasPrefix(w, "https://") {
			return fmt.Errorf("-workers: %q is not an http(s) URL", w)
		}
	}
	return nil
}

// cellOut is one cell in the machine-readable report.
type cellOut struct {
	Key      string          `json:"key"`
	Source   string          `json:"source,omitempty"`
	Worker   string          `json:"worker,omitempty"`
	Attempts int             `json:"attempts"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

type report struct {
	Cells     []cellOut `json:"cells"`
	FromStore int       `json:"from_store"`
	RanWorker int       `json:"ran_worker"`
	RanLocal  int       `json:"ran_local"`
	Failed    int       `json:"failed"`
}

func buildReport(res *sweep.Result) report {
	rep := report{
		FromStore: res.FromStore, RanWorker: res.RanWorker,
		RanLocal: res.RanLocal, Failed: res.Failed,
	}
	for _, cr := range res.Cells {
		co := cellOut{Key: cr.Cell.Key, Source: string(cr.Source),
			Worker: cr.Worker, Attempts: cr.Attempts, Result: cr.Payload}
		if cr.Err != nil {
			co.Error = cr.Err.Error()
		}
		rep.Cells = append(rep.Cells, co)
	}
	return rep
}

func run() int {
	var (
		workers   = flag.String("workers", "", "comma-separated dmtserved base URLs (empty: run every cell in-process)")
		storeDir  = flag.String("store", "", "durable result store directory (empty disables resume/dedupe)")
		envs      = flag.String("envs", "native", "environments to sweep (comma-separated)")
		designs   = flag.String("designs", "vanilla", "designs to sweep (comma-separated)")
		workloads = flag.String("workloads", "GUPS", "workloads to sweep (comma-separated)")
		thp       = flag.String("thp", "true", "THP settings to sweep (comma-separated booleans)")
		seeds     = flag.String("seeds", "1", "seeds to sweep (comma-separated integers)")

		ops        = flag.Int("ops", 0, "trace length per cell (0: engine default)")
		wsMiB      = flag.Int("ws-mib", 0, "working-set MiB per cell (0: engine default)")
		cacheScale = flag.Int("cache-scale", 0, "page-walk cache scale (0: engine default)")
		shards     = flag.Int("shards", 0, "engine shards per cell (0: engine default)")
		verify     = flag.Bool("verify", false, "run cells with sharding self-verification")

		concurrency   = flag.Int("concurrency", 0, "cells in flight at once (0: 2 per worker, min 2)")
		cellTimeout   = flag.Duration("cell-timeout", 2*time.Minute, "per-attempt deadline")
		maxAttempts   = flag.Int("max-attempts", 4, "tries per cell, first included (0: default)")
		backoffBase   = flag.Duration("backoff-base", 100*time.Millisecond, "first retry backoff")
		backoffMax    = flag.Duration("backoff-max", 5*time.Second, "retry backoff cap")
		hedgeAfter    = flag.Duration("hedge-after", 0, "hedge stragglers onto another worker after this long (0 disables)")
		failThreshold = flag.Int("fail-threshold", 3, "consecutive transient failures that evict a worker")
		cooldown      = flag.Duration("cooldown", 5*time.Second, "eviction cooldown before a readiness re-probe")
		noLocal       = flag.Bool("no-local", false, "fail cells instead of degrading to in-process execution")

		out   = flag.String("out", "", "write the result JSON to this file (default stdout)")
		quiet = flag.Bool("quiet", false, "suppress per-cell progress lines on stderr")
	)
	flag.Parse()

	sds, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmtsweep: %v\n", err)
		return 2
	}
	thps, err := parseBools(*thp, "-thp")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmtsweep: %v\n", err)
		return 2
	}
	f := cliFlags{
		workers: splitList(*workers), storeDir: *storeDir,
		envs: splitList(*envs), designs: splitList(*designs),
		workloads: splitList(*workloads), thp: thps, seeds: sds,
		ops: *ops, wsMiB: *wsMiB, cacheScale: *cacheScale,
		shards: *shards, verify: *verify,
		concurrency: *concurrency, cellTimeout: *cellTimeout,
		maxAttempts: *maxAttempts, backoffBase: *backoffBase,
		backoffMax: *backoffMax, hedgeAfter: *hedgeAfter,
		failThreshold: *failThreshold, cooldown: *cooldown,
		noLocal: *noLocal, out: *out, quiet: *quiet,
	}
	if err := f.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "dmtsweep: %v\n", err)
		return 2
	}

	cells, err := sweep.Template{
		Envs: f.envs, Designs: f.designs, Workloads: f.workloads,
		THP: f.thp, Seeds: f.seeds,
		Ops: f.ops, WSMiB: f.wsMiB, CacheScale: f.cacheScale,
		Shards: f.shards, Verify: f.verify,
	}.Expand()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmtsweep: %v\n", err)
		return 2
	}

	var st *store.Store
	if f.storeDir != "" {
		st, err = store.Open(f.storeDir, obs.Default)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmtsweep: opening store: %v\n", err)
			return 2
		}
	}

	cfg := sweep.Config{
		Workers: f.workers, Store: st, Registry: obs.Default,
		Concurrency: f.concurrency, CellTimeout: f.cellTimeout,
		MaxAttempts: f.maxAttempts, BackoffBase: f.backoffBase,
		BackoffMax: f.backoffMax, HedgeAfter: f.hedgeAfter,
		FailThreshold: f.failThreshold, Cooldown: f.cooldown,
		DisableLocal: f.noLocal,
	}
	if !f.quiet {
		cfg.OnUpdate = func(u sweep.Update) {
			line := fmt.Sprintf("cell %d/%d %-9s", u.Cell+1, u.Total, u.Event)
			if u.Attempt > 0 {
				line += fmt.Sprintf(" attempt=%d", u.Attempt)
			}
			if u.Worker != "" {
				line += " worker=" + u.Worker
			}
			if u.Err != "" {
				line += " err=" + u.Err
			}
			fmt.Fprintf(os.Stderr, "%s  [%s]\n", line, u.Key)
		}
	}
	coord, err := sweep.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmtsweep: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "dmtsweep: %d cells, %d workers, store=%q\n",
		len(cells), len(f.workers), f.storeDir)

	res, runErr := coord.Run(ctx, cells)

	rep := buildReport(res)
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmtsweep: encoding report: %v\n", err)
		return 1
	}
	enc = append(enc, '\n')
	if f.out != "" {
		if err := os.WriteFile(f.out, enc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dmtsweep: writing %s: %v\n", f.out, err)
			return 1
		}
	} else {
		os.Stdout.Write(enc)
	}

	fmt.Fprintf(os.Stderr, "dmtsweep: done: %d from store, %d on workers, %d local, %d failed\n",
		res.FromStore, res.RanWorker, res.RanLocal, res.Failed)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "dmtsweep: interrupted (%v); re-run with the same -store to resume\n", runErr)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func main() { os.Exit(run()) }
