// Package workloads implements the paper's evaluation workloads as
// execution-driven models: real data structures (a B-tree keyed store, a
// two-tier Redis/MySQL-style service, CSR graphs with PageRank /
// Connected Components / Graph500 BFS, streaming grep, an FFT, and an
// iperf-style packet generator) whose every memory access, page fault,
// and message is charged simulated time through the node's memory
// hierarchy and the Venice channels.
package workloads

import "fmt"

// Arena hands out simulated addresses inside a region, bump-pointer
// style. Data values live in ordinary Go memory; the arena only decides
// where the structure sits in the simulated physical address space —
// local DRAM, a borrowed CRMA window, or a swap-backed range.
type Arena struct {
	base uint64
	next uint64
	end  uint64
}

// NewArena carves [base, base+size).
func NewArena(base, size uint64) *Arena {
	return &Arena{base: base, next: base, end: base + size}
}

// Alloc reserves n bytes aligned to align (a power of two) and returns
// the address.
func (a *Arena) Alloc(n, align uint64) uint64 {
	if align == 0 {
		align = 1
	}
	p := (a.next + align - 1) &^ (align - 1)
	if p+n > a.end {
		panic(fmt.Sprintf("workloads: arena exhausted: need %d at %#x, end %#x", n, p, a.end))
	}
	a.next = p + n
	return p
}

// Remaining reports unallocated bytes.
func (a *Arena) Remaining() uint64 { return a.end - a.next }

// Used reports allocated bytes.
func (a *Arena) Used() uint64 { return a.next - a.base }

// opCost is the instruction budget charged for common workload steps, in
// simple ops (one per cycle at Params.CPUGHz). The constants model full
// software stacks, not inner loops: the paper's BerkeleyDB numbers
// include its buffer/lock management, and PageRank/CC run inside
// Spark-class frameworks, so per-element costs are hundreds of
// instructions. They are calibrated so all-local execution matches the
// per-operation costs implied by the paper's normalized results on the
// 667 MHz Cortex-A9 (EXPERIMENTS.md, "Fig. 5" and "Fig. 15", records
// where those results land).
const (
	opsPerBTreeProbe  = 150 // search step + BDB buffer/lock management
	opsPerRecordTouch = 250 // record (de)serialization + API layers
	opsPerEdge        = 80  // framework-weight edge processing
	opsPerVertex      = 500 // per-vertex task overhead (Spark-class)
	opsPerGrepByte    = 8   // Hadoop-grep-class per-byte scan cost
	opsPerQuery       = 400 // request parse + dispatch in a server loop
)
