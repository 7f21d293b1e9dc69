// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed number of seconds and prints every
// metric with its unit; the last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload virt_gups_miss --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced for half the time and traced for the other half, in alternating
// quarters, replays the walk configs one layer at a time, and reports the
// per-layer metrics, including the tracing overhead (untraced against
// traced throughput).
// Spans are written to .bench_build/perfbench/ under the working directory.
// README.md in this directory lists the workloads, the metrics and which
// end-to-end metric each per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dmt/internal/sim"
)

// traceDir is where traced runs leave their spans, relative to the
// working directory.
const traceDir = ".bench_build/perfbench"

// options are the command-line inputs every workload receives.
type options struct {
	seed     int64
	duration time.Duration
	trace    bool
	// record, when set, names a file the run writes its reference
	// digests to (used to refresh digests.json after a change that is
	// meant to alter simulated results).
	record string
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	metrics           []metric
	lines             []string // human-readable detail printed before the JSON line
}

// add records a metric; name must be one of endToEnd or perLayer.
func (r *report) add(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// workloadFn runs one workload.
type workloadFn func(o options) (*report, error)

var workloads = map[string]workloadFn{
	"virt_gups_miss": gupsMiss.run,
	"btree_thp_hit":  btreeHit.run,
	"aging_churn":    runAging,
	"serve_sweep":    runServe,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed (non-zero)")
	seconds := fs.Int("seconds", 10, "measured seconds (1-60)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	record := fs.String("record-digests", "", "write this run's reference digests to the named file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seed == 0:
		fmt.Fprintln(os.Stderr, "perfbench: --seed must be non-zero")
		return 2
	case *seconds < 1 || *seconds > 60:
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be in [1, 60] (got %d)\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1 (got %d)\n", *trace)
		return 2
	}
	// Every run starts from an empty prototype cache, so set-up time and
	// the cold/warm mix never depend on what ran before in the process.
	sim.ResetBuildCache()
	o := options{seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1, record: *record}
	rep, err := fn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.add("peak_rss_mib", peakRSSMiB())
	if o.trace {
		rep.metrics = keepOnly(rep.metrics, perLayer)
	} else {
		rep.metrics = keepOnly(rep.metrics, endToEnd)
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d gomaxprocs %d\n", *name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("fail_frac %g (%d failed of %d attempted)\n", frac, rep.failed, rep.attempted)
	for _, m := range rep.metrics {
		fmt.Printf("%-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef is a reported metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics each mode prints, as BENCHMARK.json
// lists them (TestMetricsMatchBenchmarkJSON keeps the two in step). Every
// workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

var perLayer = []metricDef{
	{"sim.build_ms", "ms"},
	{"sim.clone_ms", "ms"},
	{"sim.finish_us", "us"},
	{"sim.step_ns_per_op", "ns"},
	{"sim.step_ns_per_miss", "ns"},
	{"sim.protocache_hit_ratio", "ratio"},
	{"workload.gen_ns_per_op", "ns"},
	{"tlb.lookup_ns_per_op", "ns"},
	{"tlb.hit_ratio", "ratio"},
	{"pagetable.walk_ns_per_miss", "ns"},
	{"cache.access_ns", "ns"},
	{"cache.l1d_hit_ratio", "ratio"},
	{"cache.l2_hit_ratio", "ratio"},
	{"cache.llc_hit_ratio", "ratio"},
	{"cache.mem_fetches_per_op", "count"},
	{"core.walker_self_ns_per_miss", "ns"},
	{"core.walk_cycles_avg", "count"},
	{"core.seq_refs_per_walk", "count"},
	{"kernel.new_as_us", "us"},
	{"kernel.populate_ns_per_page", "ns"},
	{"kernel.munmap_ns_per_page", "ns"},
	{"virt.new_vm_us", "us"},
	{"scenario.boots", "count"},
	{"scenario.tea_allocs", "count"},
	{"scenario.frames_migrated", "count"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.encode_us", "us"},
	{"serve.coalesced", "count"},
	{"share.pagetable_pct", "%"},
	{"share.tlb_cache_pct", "%"},
	{"share.kernel_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

// keepOnly returns the metrics named in want, in want's order; a metric the
// workload did not produce reads 0 (its layer is not on the workload's path).
func keepOnly(ms []metric, want []metricDef) []metric {
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(want))
	for _, d := range want {
		m, ok := byName[d.name]
		if !ok {
			m = metric{Name: d.name, Unit: d.unit}
		}
		out = append(out, m)
	}
	return out
}

// resultLine renders the final JSON line.
func resultLine(r *report) (string, error) {
	type value struct {
		Value json.Number `json:"value"`
		Unit  string      `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		ms[m.Name] = value{json.Number(strconv.FormatFloat(m.Value, 'g', -1, 64)), m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms})
	return string(b), err
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles follows Python's statistics.quantiles(n=4) (the exclusive
// method), so printed spreads match the usual way of summarising runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// position m = i*(n+1)/4, 1-based, clamped into the data
		m := float64(i*(n+1)) / 4
		j := int(m)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 { _, m, _ := quartiles(xs); return m }

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(p/100*float64(len(s))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// spreadLine prints a median with its quartiles and sample count.
func spreadLine(name string, xs []float64, unit string) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("  %-12s median %.6g %s  q1 %.6g  q3 %.6g  n %d", name, q2, unit, q1, q3, len(xs))
}

// splitmix derives decorrelated non-zero seeds from the workload seed.
func splitmix(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

// memSnap captures the allocator counters a phase reports.
type memSnap struct{ alloc, gcs uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, uint64(m.NumGC)}
}

// phases holds a run's measured phases. An untraced run measures once, for
// the whole duration, into measured. A traced run splits the duration into
// four chunks run untraced, traced, traced, untraced, so warm-up and drift
// weigh on both sides alike: untraced is the reference for the tracing
// overhead, and the traced chunks run under a CPU profile.
type phases[P any] struct {
	untraced, measured P
	shares             map[string]float64 // CPU-profile layer shares, traced only
	alloc, gcs         uint64             // allocator activity in the traced chunks
}

// measurePhases runs measure, which appends one chunk of d to *P (at least
// one round, so d = 0 runs exactly one). One discarded round first lets the
// heap and the host caches warm up.
func measurePhases[P any](o options, tr *tracer, measure func(ph *P, d time.Duration, tr *tracer)) (phases[P], error) {
	var ps, warm phases[P]
	measure(&warm.measured, 0, nil)
	if tr == nil {
		measure(&ps.measured, o.duration, nil)
		return ps, nil
	}
	weights := map[string]int64{}
	d := o.duration / 4
	for _, traced := range []bool{false, true, true, false} {
		if !traced {
			measure(&ps.untraced, d, nil)
			continue
		}
		before := readMem()
		prof, err := startProfile()
		if err != nil {
			return ps, err
		}
		measure(&ps.measured, d, tr)
		if err := prof.stop(weights); err != nil {
			return ps, err
		}
		after := readMem()
		ps.alloc += after.alloc - before.alloc
		ps.gcs += after.gcs - before.gcs
	}
	ps.shares = shares(weights)
	return ps, nil
}

// addTraced reports what every traced run shares: the runtime counters, the
// CPU-profile shares, the tracing overhead (untraced over traced work rate)
// and the spans with each layer's self time.
func addTraced[P any](r *report, tr *tracer, ps phases[P], rates func(P) []float64, workload string, seed int64) {
	r.add("runtime.alloc_mib", float64(ps.alloc)/(1<<20))
	r.add("runtime.gc_cycles", float64(ps.gcs))
	shares := ps.shares
	r.add("share.pagetable_pct", 100*shares["pagetable"])
	r.add("share.tlb_cache_pct", 100*(shares["tlb"]+shares["cache"]))
	r.add("share.kernel_pct", 100*shares["kernel"])
	var line string
	for _, l := range []string{"sim", "core", "tlb", "cache", "pagetable", "kernel", "virt", "tea", "phys", "scenario", "check", "serve", "workload", "bench", "runtime"} {
		if s := shares[l]; s > 0 {
			line += fmt.Sprintf(" %s %.1f%%", l, 100*s)
		}
	}
	r.linef("  cpu profile shares:%s", line)
	if traced := median(rates(ps.measured)); traced > 0 {
		r.add("trace.overhead_pct", 100*(median(rates(ps.untraced))/traced-1))
	}
	r.lines = append(r.lines, selfLines(tr.layerSelf())...)
	if path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d", workload, seed)); err == nil {
		r.linef("spans: %s", path)
	} else {
		r.linef("spans not written: %v", err)
	}
}
