package serve

import (
	"fmt"

	"dmt/internal/sim"
	"dmt/internal/workload"
)

// RunRequest is the wire form of one simulation job: the result-determining
// subset of sim.Config that the service exposes, plus scheduling hints
// (Workers) and the requester's patience (TimeoutMs). Zero values defer to
// the engine's defaults (sim.Config.Normalized), so the minimal request is
// just {env, design, workload}.
type RunRequest struct {
	Env      string `json:"env"`
	Design   string `json:"design"`
	Workload string `json:"workload"`
	THP      bool   `json:"thp,omitempty"`
	// Ops is the trace length (0 = engine default).
	Ops int `json:"ops,omitempty"`
	// Seed drives trace generation (0 = engine default).
	Seed int64 `json:"seed,omitempty"`
	// WSMiB overrides the workload's scaled default working set.
	WSMiB int `json:"ws_mib,omitempty"`
	// CacheScale is the structure-scaling divisor (0 = engine default).
	CacheScale int `json:"cache_scale,omitempty"`
	// Workers schedules shard execution; it never changes results.
	Workers int `json:"workers,omitempty"`
	// Shards decomposes the trace; results depend on it (see DESIGN.md §8).
	Shards int `json:"shards,omitempty"`
	// Verify arms the differential oracle on every translation.
	Verify bool `json:"verify,omitempty"`
	// TimeoutMs bounds how long this requester waits for the result; the
	// job itself is governed by the server's per-job deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Config validates the request and converts it to an engine configuration.
// maxOps, when positive, caps the admitted trace length.
func (q *RunRequest) Config(maxOps int) (sim.Config, error) {
	env, err := sim.ParseEnvironment(q.Env)
	if err != nil {
		return sim.Config{}, err
	}
	design, err := sim.ParseDesign(q.Design)
	if err != nil {
		return sim.Config{}, err
	}
	wl, err := workload.ByName(q.Workload)
	if err != nil {
		return sim.Config{}, err
	}
	switch {
	case q.Ops < 0:
		return sim.Config{}, fmt.Errorf("serve: ops must be >= 0 (got %d)", q.Ops)
	case maxOps > 0 && q.Ops > maxOps:
		return sim.Config{}, fmt.Errorf("serve: ops %d exceeds the admission cap %d", q.Ops, maxOps)
	case q.WSMiB < 0:
		return sim.Config{}, fmt.Errorf("serve: ws_mib must be >= 0 (got %d)", q.WSMiB)
	case q.Workers < 0:
		return sim.Config{}, fmt.Errorf("serve: workers must be >= 0 (got %d)", q.Workers)
	case q.Shards < 0:
		return sim.Config{}, fmt.Errorf("serve: shards must be >= 0 (got %d)", q.Shards)
	case q.TimeoutMs < 0:
		return sim.Config{}, fmt.Errorf("serve: timeout_ms must be >= 0 (got %d)", q.TimeoutMs)
	}
	if err := sim.CheckCacheScale(q.CacheScale); err != nil {
		return sim.Config{}, fmt.Errorf("serve: cache_scale: %w", err)
	}
	if err := sim.CheckWS(q.WSMiB); err != nil {
		return sim.Config{}, fmt.Errorf("serve: ws_mib: %w", err)
	}
	cfg := sim.Config{
		Env: env, Design: design, THP: q.THP, Workload: wl,
		WSBytes: uint64(q.WSMiB) << 20, Ops: q.Ops, Seed: q.Seed,
		CacheScale: q.CacheScale, Workers: q.Workers, Shards: q.Shards,
		Verify: q.Verify,
	}
	if err := sim.CheckShards(cfg); err != nil {
		return sim.Config{}, fmt.Errorf("serve: shards: %w", err)
	}
	return cfg, nil
}

// jobKey is the request-coalescing key: the result-determining fields of a
// normalized configuration. It extends the engine's buildKey (env, design,
// THP, workload, working set, cache scale) with the trace-level fields the
// wire exposes (ops, seed, shards, verify). Workers is deliberately
// excluded — it schedules shards but never changes results (DESIGN.md §8)
// — so two requests differing only in worker count share one simulation.
type jobKey struct {
	env    sim.Environment
	design sim.Design
	thp    bool
	wl     string
	ws     uint64
	scale  int
	ops    int
	seed   int64
	shards int
	verify bool
}

// CanonicalKey renders the result-determining subset of a configuration —
// the same fields as the in-memory coalescing jobKey, in the same spirit —
// as one stable text line. It is the durable identity of a simulation: the
// sweep fabric's cell key and the content address of the persistent result
// store (internal/store) are both derived from it, so a result computed by
// any worker anywhere can be recognized by any coordinator later. The
// leading version tag invalidates every stored entry if the key schema
// ever changes. Workers is excluded (it schedules, never changes results);
// the engine-only knobs the wire does not expose (fault plans, TEA
// ablations, fragmentation targets) are zero by construction for every
// request that can reach this layer.
func CanonicalKey(cfg sim.Config) string {
	cfg = cfg.Normalized()
	return fmt.Sprintf("v1 env=%s design=%s thp=%t wl=%s ws=%d scale=%d ops=%d seed=%d shards=%d verify=%t",
		cfg.Env, cfg.Design, cfg.THP, cfg.Workload.Name, cfg.WSBytes,
		cfg.CacheScale, cfg.Ops, cfg.Seed, cfg.Shards, cfg.Verify)
}

// keyFor derives the coalescing key; cfg must already be normalized.
func keyFor(cfg sim.Config) jobKey {
	return jobKey{
		env: cfg.Env, design: cfg.Design, thp: cfg.THP, wl: cfg.Workload.Name,
		ws: cfg.WSBytes, scale: cfg.CacheScale, ops: cfg.Ops, seed: cfg.Seed,
		shards: cfg.Shards, verify: cfg.Verify,
	}
}

// RunResponse is the wire form of a Result. Every integer field is carried
// verbatim, so a response can be compared bit-for-bit against a direct
// sim.Run of the same configuration (the serve smoke test does exactly
// that); the float fields are pure functions of the integers.
type RunResponse struct {
	Env      string `json:"env"`
	Design   string `json:"design"`
	Workload string `json:"workload"`
	THP      bool   `json:"thp"`
	Shards   int    `json:"shards"`

	Ops             int     `json:"ops"`
	TLBMisses       uint64  `json:"tlb_misses"`
	Walks           uint64  `json:"walks"`
	WalkCycles      uint64  `json:"walk_cycles"`
	AvgWalkCycles   float64 `json:"avg_walk_cycles"`
	WalkP50         uint64  `json:"walk_p50"`
	WalkP99         uint64  `json:"walk_p99"`
	WalkMax         uint64  `json:"walk_max"`
	SeqRefs         uint64  `json:"seq_refs"`
	TotalRefs       uint64  `json:"total_refs"`
	DataCycles      uint64  `json:"data_cycles"`
	Coverage        float64 `json:"coverage"`
	Fallbacks       uint64  `json:"fallbacks"`
	Hypercalls      uint64  `json:"hypercalls"`
	VMExits         uint64  `json:"vm_exits"`
	ShadowSyncs     uint64  `json:"shadow_syncs"`
	IsolationFaults uint64  `json:"isolation_faults"`
	PTEBytes        int     `json:"pte_bytes"`
	Checked         uint64  `json:"checked"`
	Mismatches      uint64  `json:"mismatches"`

	// Counters is the run's named-counter snapshot (TLB/PWC/cache splits,
	// walker-chain attribution — DESIGN.md §10).
	Counters map[string]uint64 `json:"counters"`

	// Coalesced reports that this response rode a flight another request
	// started (transport metadata, not part of the simulation result).
	Coalesced bool `json:"coalesced,omitempty"`
}

// ResponseFor flattens a Result into its wire form.
func ResponseFor(res *sim.Result) RunResponse {
	cfg := res.Config.Normalized()
	var max uint64
	if res.WalkHist != nil {
		max = res.WalkHist.Max
	}
	return RunResponse{
		Env: cfg.Env.String(), Design: string(cfg.Design), Workload: cfg.Workload.Name,
		THP: cfg.THP, Shards: cfg.Shards,
		Ops:       res.Ops,
		TLBMisses: res.TLBMisses, Walks: res.Walks, WalkCycles: res.WalkCycles,
		AvgWalkCycles: res.AvgWalkCycles(),
		WalkP50:       res.WalkPercentile(50), WalkP99: res.WalkPercentile(99), WalkMax: max,
		SeqRefs: res.SeqRefs, TotalRefs: res.TotalRefs, DataCycles: res.DataCycles,
		Coverage: res.Coverage, Fallbacks: res.Fallbacks,
		Hypercalls: res.Hypercalls, VMExits: res.VMExits,
		ShadowSyncs: res.ShadowSyncs, IsolationFaults: res.IsolationFaults,
		PTEBytes: res.PTEBytes, Checked: res.Checked, Mismatches: res.Mismatches,
		Counters: res.Counters,
	}
}
