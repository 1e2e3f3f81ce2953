package memsys

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// MemManager is the OS-level view of one node's physical memory: how much
// exists, how much applications hold, and which regions have been
// hot-removed for donation to other nodes (§5.2.1, Fig. 10).
type MemManager struct {
	P     *sim.Params
	Total uint64

	used    uint64
	removed []removedRegion
	// holes are freed former-removals below nextTop, kept for reuse:
	// returns rarely arrive in LIFO order, so without a free list the
	// top-carve cursor would only ever descend and a long-lived node
	// with acquire/release churn would exhaust its address space while
	// plenty of bytes sit idle.
	holes   []removedRegion
	nextTop uint64 // hot-removals carve from the top of physical memory
}

type removedRegion struct {
	base uint64
	size uint64
}

// NewMemManager tracks a node with total bytes of physical memory.
func NewMemManager(p *sim.Params, total uint64) *MemManager {
	return &MemManager{P: p, Total: total, nextTop: total}
}

// Used reports bytes held by applications.
func (m *MemManager) Used() uint64 { return m.used }

// Removed reports bytes hot-removed for donation.
func (m *MemManager) Removed() uint64 {
	var sum uint64
	for _, r := range m.removed {
		sum += r.size
	}
	return sum
}

// Idle reports bytes available locally: total minus used minus donated.
func (m *MemManager) Idle() uint64 { return m.Total - m.used - m.Removed() }

// Reserve allocates application memory.
func (m *MemManager) Reserve(size uint64) error {
	if size > m.Idle() {
		return fmt.Errorf("memsys: reserve %d exceeds idle %d", size, m.Idle())
	}
	m.used += size
	return nil
}

// Release frees application memory.
func (m *MemManager) Release(size uint64) {
	if size > m.used {
		panic("memsys: releasing more than used")
	}
	m.used -= size
}

// HotRemove takes size bytes out of the local OS's view so they can be
// donated, blocking the process for the hot-plug operation, and returns
// the donor-local physical base of the removed region.
func (m *MemManager) HotRemove(p *sim.Proc, size uint64) (uint64, error) {
	base, fault := m.hotRemove(p, size)
	switch fault {
	case removeUnaligned:
		return 0, fmt.Errorf("memsys: hot-remove size %d not page-aligned", size)
	case removeOverIdle:
		return 0, fmt.Errorf("memsys: hot-remove %d exceeds idle %d", size, m.Idle())
	case removeExhausted:
		return 0, fmt.Errorf("memsys: hot-remove %d: address space exhausted (top %#x)", size, m.nextTop)
	}
	return base, nil
}

// TryHotRemove is HotRemove for a caller that needs only whether the
// hot-remove succeeded: a decline formats nothing, so it allocates
// nothing. A donor's agent declines this way.
func (m *MemManager) TryHotRemove(p *sim.Proc, size uint64) (uint64, bool) {
	base, fault := m.hotRemove(p, size)
	return base, fault == removeOK
}

// removeFault is why a hot-remove declined.
type removeFault uint8

const (
	removeOK removeFault = iota
	removeUnaligned
	removeOverIdle
	removeExhausted
)

// hotRemove runs a hot-remove and reports its fault, checked in the
// order HotRemove's messages name them: alignment and idle bytes before
// the hot-plug sleep, address space after it.
func (m *MemManager) hotRemove(p *sim.Proc, size uint64) (uint64, removeFault) {
	if size == 0 || size%uint64(m.P.PageBytes) != 0 {
		return 0, removeUnaligned
	}
	if size > m.Idle() {
		return 0, removeOverIdle
	}
	p.Sleep(m.P.HotplugOp)
	// Reuse an exact-fit hole left by an earlier return before carving
	// fresh address space from the top.
	for i, h := range m.holes {
		if h.size == size {
			m.holes = slices.Delete(m.holes, i, i+1)
			m.removed = append(m.removed, h)
			return h.base, removeOK
		}
	}
	if m.nextTop < size {
		return 0, removeExhausted
	}
	m.nextTop -= size
	base := m.nextTop
	m.removed = append(m.removed, removedRegion{base: base, size: size})
	return base, removeOK
}

// Reboot resets the manager to a fresh-boot state: hot-removed regions
// come back (a reboot rebuilds the OS memory map from the full DIMM) and
// application reservations are gone (the processes holding them died
// with the node). Used by the agent's crash-recovery path.
func (m *MemManager) Reboot() {
	m.used = 0
	m.removed = nil
	m.holes = nil
	m.nextTop = m.Total
}

// HotAddReturn returns a previously hot-removed region to the local OS
// (the stop-sharing path). The region must match a removal exactly.
func (m *MemManager) HotAddReturn(p *sim.Proc, base, size uint64) error {
	if !m.hasRemoved(base, size) {
		return fmt.Errorf("memsys: no removed region [%#x,+%#x) to return", base, size)
	}
	p.Sleep(m.P.HotplugOp)
	// Re-find after the sleep: concurrent returns to this node may have
	// reshuffled the slice while this one was blocked on the hot-plug.
	for i, r := range m.removed {
		if r.base == base && r.size == size {
			m.removed = slices.Delete(m.removed, i, i+1)
			if base == m.nextTop {
				// Freed regions at the top merge back directly, then absorb
				// any holes that became adjacent.
				m.nextTop += size
				m.absorbHoles()
			} else {
				m.holes = append(m.holes, removedRegion{base: base, size: size})
			}
			return nil
		}
	}
	return fmt.Errorf("memsys: removed region [%#x,+%#x) vanished during return", base, size)
}

// hasRemoved reports whether an exactly matching removal exists.
func (m *MemManager) hasRemoved(base, size uint64) bool {
	for _, r := range m.removed {
		if r.base == base && r.size == size {
			return true
		}
	}
	return false
}

// absorbHoles merges free-list entries that sit at the carve cursor
// back into the top region, repeating until no hole is adjacent.
func (m *MemManager) absorbHoles() {
	for {
		merged := false
		for i, h := range m.holes {
			if h.base == m.nextTop {
				m.nextTop += h.size
				m.holes = slices.Delete(m.holes, i, i+1)
				merged = true
				break
			}
		}
		if !merged {
			return
		}
	}
}
