package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"dmt/internal/scenario"
	"dmt/internal/serve"
	"dmt/internal/sim"
)

// recordedSeed is the seed whose outputs digests.json stores. On that seed
// every output is compared with its stored digest; on any other seed the
// first output of each key becomes the reference its repeats must match.
const recordedSeed = 1

//go:embed digests.json
var digestsJSON []byte

// checker counts attempted and failed operations and compares outputs.
type checker struct {
	workload          string
	golden            map[string]string // stored digests, recorded seed only
	seen              map[string]string // first digest observed per key
	attempted, failed int
	errs              []string
}

func newChecker(workload string, o options) (*checker, error) {
	c := &checker{workload: workload, seen: map[string]string{}}
	if o.seed == recordedSeed && o.record == "" {
		var all map[string]map[string]string
		if err := json.Unmarshal(digestsJSON, &all); err != nil {
			return nil, fmt.Errorf("digests.json: %w", err)
		}
		c.golden = all[workload]
		if len(c.golden) == 0 {
			return nil, fmt.Errorf("digests.json has no digests for %s", workload)
		}
	}
	return c, nil
}

// fail counts one failed operation and keeps its reason for the report.
func (c *checker) fail(format string, args ...any) {
	c.attempted++
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// observe checks one successful operation's output digest under key.
func (c *checker) observe(key, digest string) {
	if c.golden != nil {
		if want := c.golden[key]; want != digest {
			c.fail("%s: digest %s, stored %q", key, digest, want)
			return
		}
	}
	if first, ok := c.seen[key]; ok && first != digest {
		c.fail("%s: digest %s differs from the first run's %s", key, digest, first)
		return
	}
	c.seen[key] = digest
	c.attempted++
}

// finish copies the counts into the report and, when asked, writes the
// observed reference digests.
func (c *checker) finish(r *report, record string) error {
	r.attempted += c.attempted
	r.failed += c.failed
	for _, e := range c.errs {
		r.linef("FAIL %s", e)
	}
	if record == "" {
		return nil
	}
	all := map[string]map[string]string{}
	if b, err := os.ReadFile(record); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", record, err)
		}
	}
	all[c.workload] = c.seen
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(record, append(b, '\n'), 0o644)
}

// hashInts hashes a sequence of integers and the sorted named counters.
func hashInts(ints []uint64, counters map[string]uint64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, v := range ints {
		put(v)
	}
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		put(counters[n])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// resultDigest covers the integer fields of a sim.Result and its counters.
func resultDigest(r *sim.Result) string {
	ints := []uint64{
		uint64(r.Ops), r.TLBMisses, r.Walks, r.WalkCycles, r.SeqRefs, r.TotalRefs,
		r.DataCycles, r.Fallbacks, r.Hypercalls, r.VMExits, r.ShadowSyncs,
		r.IsolationFaults, uint64(r.PTEBytes), uint64(r.FaultsApplied),
		uint64(r.FaultsSkipped), r.DemandFaults, r.Checked, r.Mismatches,
	}
	if h := r.WalkHist; h != nil {
		ints = append(ints, h.Count, h.Sum, h.Min, h.Max)
	}
	return hashInts(ints, r.Counters)
}

// responseDigest covers the integer fields of a served response.
func responseDigest(r *serve.RunResponse) string {
	ints := []uint64{
		uint64(r.Shards), uint64(r.Ops), r.TLBMisses, r.Walks, r.WalkCycles,
		r.WalkP50, r.WalkP99, r.WalkMax, r.SeqRefs, r.TotalRefs, r.DataCycles,
		r.Fallbacks, r.Hypercalls, r.VMExits, r.ShadowSyncs, r.IsolationFaults,
		uint64(r.PTEBytes), r.Checked, r.Mismatches,
	}
	return hashInts(ints, r.Counters)
}

// agingDigest covers the per-epoch scenario counters.
func agingDigest(r *scenario.Result) string {
	ints := []uint64{uint64(r.OracleChecks)}
	for _, row := range r.Rows {
		ints = append(ints, uint64(row.Events), uint64(row.LiveVMs), row.Boots,
			row.BootFailures, row.Kills, row.TEAAllocs, row.TEAFailures,
			row.FramesMigrated, row.RegCovered, row.RegSpan,
			row.Walk.Count, row.Walk.Sum, row.Walk.Min, row.Walk.Max)
	}
	return hashInts(ints, nil)
}
