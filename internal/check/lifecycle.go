package check

import (
	"fmt"

	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/phys"
	"dmt/internal/tea"
)

// Lifecycle conservation oracle: the strict frame-accounting checks the
// long-horizon aging scenario runs at every epoch. Where TEAInvariants
// verifies the *translation* structures (registers, region geometry, node
// placement), these functions verify the *allocation* ledger — every frame
// allocated is freed exactly once, and at any instant the free count plus
// every live claim tiles physical memory exactly. A violation here is a
// leak or double free that per-operation tests rarely catch: it only
// surfaces after thousands of boot→churn→destroy cycles.

// Conservation asserts the allocator's global ledger: the buddy metadata
// audits clean, and FreeFrames plus the caller's count of every frame it
// believes live equals TotalFrames. `claimed` is typically the sum of
// DataFrames, NodeFrames, and the TEA manager's FramesLive for every
// address space carved from the allocator.
func Conservation(pa *phys.Allocator, claimed int) []string {
	var bad []string
	if err := pa.Audit(); err != nil {
		bad = append(bad, fmt.Sprintf("allocator audit: %v", err))
	}
	free, total := pa.FreeFrames(), pa.TotalFrames()
	if free+claimed != total {
		bad = append(bad, fmt.Sprintf("frame ledger broken: %d free + %d claimed != %d total (delta %+d)",
			free, claimed, total, total-free-claimed))
	}
	return bad
}

// DataFrames counts the 4 KiB frames backing a space's populated pages —
// the frames MUnmap would return to the allocator. Resident pages (mapped
// gTEA windows and other externally-owned frames) are excluded: teardown
// unmaps them but their frames belong to whoever installed them.
func DataFrames(as *kernel.AddressSpace) int {
	frames := 0
	for _, v := range as.VMAs() {
		v.ForEachPresent(func(va mem.VAddr, size mem.PageSize) {
			if !v.ResidentAt(va) {
				frames += int(size.Bytes() >> mem.PageShift4K)
			}
		})
	}
	return frames
}

// NodeFrames counts the page-table node frames the space claimed from its
// allocator. Nodes placed inside TEA storage are excluded when ownedByTEA
// is non-nil: those frames are part of a TEA region and already accounted
// by the owning manager's FramesLive (counting them here would double-claim
// them). Pass mgr.OwnsNode for a hook-managed space, nil otherwise.
func NodeFrames(as *kernel.AddressSpace, ownedByTEA func(mem.PAddr) bool) int {
	return as.Pool.CountNodes(func(n *pagetable.Node) bool {
		return ownedByTEA == nil || !ownedByTEA(n.Base)
	})
}

// ASInvariants checks an address space's structural health under churn:
// the VMA list is sorted and disjoint, and every recorded present page is
// backed by a live translation of the recorded size. Bookkeeping drift
// between the VMA state bytes and the page table is what turns a later
// teardown into a double free (freeing a 4 KiB frame at order 9) or a leak
// (skipping a page the table still maps).
func ASInvariants(as *kernel.AddressSpace) []string {
	var bad []string
	vmas := as.VMAs()
	for i := 1; i < len(vmas); i++ {
		if vmas[i-1].End > vmas[i].Start {
			bad = append(bad, fmt.Sprintf("VMA overlap: %v collides with %v", vmas[i-1], vmas[i]))
		}
	}
	for _, v := range vmas {
		v.ForEachPresent(func(va mem.VAddr, recorded mem.PageSize) {
			_, size, ok := as.PT.Lookup(va)
			switch {
			case !ok:
				bad = append(bad, fmt.Sprintf("%s: page %#x recorded present but not mapped", v.Name, uint64(va)))
			case size != recorded:
				bad = append(bad, fmt.Sprintf("%s: page %#x recorded %v but mapped %v", v.Name, uint64(va), recorded, size))
			}
		})
	}
	return bad
}

// TEAAccounting verifies the manager's FramesLive ledger against the
// regions actually reachable from its mappings: every allocated TEA frame
// reachable exactly once (shared regions dedupe by backing identity), plus
// any in-flight migration targets. FramesLive drifting above the reachable
// sum is the signature of a leaked region — storage no mapping can ever
// release again.
func TEAAccounting(mgr *tea.Manager) []string {
	seen := map[mem.PAddr]struct{}{}
	reachable := 0
	count := func(r tea.Region) {
		if r.Frames == 0 {
			return
		}
		if _, dup := seen[r.NodeBase]; dup {
			return
		}
		seen[r.NodeBase] = struct{}{}
		reachable += r.Frames
	}
	for _, mp := range mgr.Mappings() {
		for _, ri := range mp.SizeRegions() {
			count(ri.Region)
			if ri.Migrating {
				count(ri.MigrateTo)
			}
		}
	}
	// Quarantined storage (failed evacuations) stays claimed on purpose.
	reachable += mgr.OrphanedFrames()
	var bad []string
	if int64(reachable) != mgr.Stats.FramesLive {
		bad = append(bad, fmt.Sprintf("TEA ledger broken: %d frames reachable from mappings, FramesLive says %d (delta %+d)",
			reachable, mgr.Stats.FramesLive, mgr.Stats.FramesLive-int64(reachable)))
	}
	return bad
}
