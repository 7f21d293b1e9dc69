package main

import (
	"strings"
	"testing"
	"time"

	"dmt/internal/sweep"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a,b", []string{"a", "b"}},
		{" a , b ,", []string{"a", "b"}},
		{",,", nil},
	}
	for _, tc := range cases {
		got := splitList(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("splitList(%q) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("splitList(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

func TestParseSeedsAndBools(t *testing.T) {
	seeds, err := parseSeeds("1, 2,3")
	if err != nil || len(seeds) != 3 || seeds[2] != 3 {
		t.Fatalf("parseSeeds = %v, %v", seeds, err)
	}
	if _, err := parseSeeds("1,x"); err == nil {
		t.Fatal("parseSeeds accepted a non-integer")
	}
	bools, err := parseBools("true,false", "-thp")
	if err != nil || len(bools) != 2 || bools[0] != true || bools[1] != false {
		t.Fatalf("parseBools = %v, %v", bools, err)
	}
	if _, err := parseBools("maybe", "-thp"); err == nil {
		t.Fatal("parseBools accepted a non-boolean")
	}
}

// TestFlagValidation pins the exit-2 surface: sizing and URL mistakes are
// rejected before any cell is scheduled.
func TestFlagValidation(t *testing.T) {
	ok := cliFlags{
		workers: []string{"http://a:7677"},
		envs:    []string{"native"}, designs: []string{"vanilla"},
		workloads: []string{"GUPS"}, thp: []bool{true}, seeds: []int64{1},
		cellTimeout: time.Minute, maxAttempts: 4, failThreshold: 3,
	}
	if err := ok.validate(); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*cliFlags)
		want   string
	}{
		{"no-local without workers", func(f *cliFlags) { f.workers = nil; f.noLocal = true }, "-no-local"},
		{"negative ops", func(f *cliFlags) { f.ops = -1 }, "-ops"},
		{"negative ws", func(f *cliFlags) { f.wsMiB = -1 }, "-ws-mib"},
		{"negative shards", func(f *cliFlags) { f.shards = -1 }, "-shards"},
		{"negative concurrency", func(f *cliFlags) { f.concurrency = -1 }, "-concurrency"},
		{"negative attempts", func(f *cliFlags) { f.maxAttempts = -1 }, "-max-attempts"},
		{"negative timeout", func(f *cliFlags) { f.cellTimeout = -time.Second }, "durations"},
		{"negative threshold", func(f *cliFlags) { f.failThreshold = -1 }, "-fail-threshold"},
		{"bare host worker", func(f *cliFlags) { f.workers = []string{"a:7677"} }, "-workers"},
		{"negative cache scale", func(f *cliFlags) { f.cacheScale = -1 }, "-cache-scale"},
		{"cache scale past L1D sets", func(f *cliFlags) { f.cacheScale = 65 }, "-cache-scale: cache scale 65"},
		{"shards over ops", func(f *cliFlags) { f.ops, f.shards = 100, 1<<20 }, "-shards: 1048576 shards exceed the 100 trace ops"},
		{"shards over default ops", func(f *cliFlags) { f.shards = 200_001 }, "-shards: 200001 shards exceed the 200000"},
		{"ws over cap", func(f *cliFlags) { f.wsMiB = 65536 }, "-ws-mib: working set 65536 MiB outside [0, 16384]"},
		{"ws bytes wrap to zero", func(f *cliFlags) { f.wsMiB = 1 << 44 }, "-ws-mib: working set"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok
			tc.mutate(&f)
			err := f.validate()
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestBuildReport: failures carry their error, successes their payload,
// and tallies pass through.
func TestBuildReport(t *testing.T) {
	res := &sweep.Result{
		Cells: []sweep.CellResult{
			{Cell: sweep.Cell{Key: "k0"}, Payload: []byte(`{"ops":1}`),
				Source: sweep.SourceStore},
			{Cell: sweep.Cell{Key: "k1"}, Err: sweep.ErrNoWorkers, Attempts: 4},
		},
		FromStore: 1, Failed: 1,
	}
	rep := buildReport(res)
	if len(rep.Cells) != 2 || rep.FromStore != 1 || rep.Failed != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Cells[0].Error != "" || string(rep.Cells[0].Result) != `{"ops":1}` {
		t.Fatalf("success cell = %+v", rep.Cells[0])
	}
	if rep.Cells[1].Error == "" || rep.Cells[1].Result != nil {
		t.Fatalf("failed cell = %+v", rep.Cells[1])
	}
}
