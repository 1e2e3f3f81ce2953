package monitor

import (
	"slices"
	"strings"
)

// Counters is one monitor-plane component's activity counts: an MN's
// (including the grant retries stale RRT records cause, §5.3's
// handshake-and-retry), the root's and an agent's. Every counter is
// declared once, in the table below, and an add indexes an array, so
// counting hashes nothing. The zero value is ready to use.
type Counters struct {
	n [numCounters]int64
	// zeroAdded marks the counters added 0. No add is negative, so a
	// counter was added to at least once exactly when its count is
	// nonzero or it is marked here.
	zeroAdded [numCounters]bool
}

// add adds n, which is never negative, to counter c.
func (s *Counters) add(c counter, n int64) {
	s.n[c] += n
	if n == 0 {
		s.zeroAdded[c] = true
	}
}

// Get reports the count of the counter named name: 0 when it was never
// added to, or when no counter has that name.
func (s *Counters) Get(name string) int64 {
	if c, ok := counterByName[name]; ok {
		return s.n[c]
	}
	return 0
}

// Keys reports, sorted, the names of the counters added to at least
// once, an add of 0 included.
func (s *Counters) Keys() []string {
	keys := []string{}
	for _, c := range countersByName {
		if s.n[c] != 0 || s.zeroAdded[c] {
			keys = append(keys, counterNames[c])
		}
	}
	return keys
}

// counter names one monitor-plane counter.
type counter uint8

// The counters, by owner: the MN's grant, free, admission and
// preemption paths; its recovery, migration and spare pool; the sharded
// plane's sub-MNs and root; the outbox; the agents.
const (
	statHeartbeats counter = iota
	statAllocMemory
	statAllocAccelerator
	statAllocNIC
	statAllocUnknown
	statAllocMalformed
	statAllocFailures
	statAllocDeadSkips
	statAllocGrantTimeouts
	statAllocRetries
	statFreeMemory
	statFreeDevice
	statFreeDonorUnreachable
	statAdmitQueued
	statAdmitQueueAdmits
	statAdmitDegraded
	statAdmitRejected
	statPreemptExhausted
	statPreemptMemory
	statPreemptDevice
	statPreemptRevokeLost

	statRecoverRebootsSeen
	statRecoverReappeared
	statRecoverRebootRecoveries
	statRecoverDeaths
	statRecoverReclaimed
	statRecoverDevicesReclaimed
	statRecoverRacedFree
	statRecoverRelocateLost
	statRecoverReplaced
	statRecoverDevicesReplaced
	statRecoverNS
	statRecoverRelocateRetried
	statRecoverRevokeRetried
	statRecoverRevokeLost
	statRecoverRevoked
	statRecoverDevicesDropped
	statRecoverGrantTimeouts
	statRecoverRetries
	statRecoverOrphanReturns
	statRecoverSpareAttached
	statRecoverSpareStale
	statMigrateRacedFree
	statMigrateAborted
	statMigrateMoved
	statMigrateNS
	statMigrateNoCandidate
	statMigrateHotDetected
	statSparePruned
	statSpareCarveLost
	statSpareCarveDeclined
	statSpareCarveObsolete
	statSpareCarved

	statRackbeats
	statRackbeatsLost
	statAllocUpstreamTimeouts
	statAllocCancelRetried
	statAllocCancelLost
	statAllocUpstreamDeclines
	statAllocDelegated
	statDelegateDeclined
	statDelegateGranted
	statFreeUpstreamRetried
	statFreeUpstreamLost
	statFreeDelegated
	statFreeDelegateBacked
	statFreeDelegateCancelled
	statRootRackbeats
	statRootDelegateTimeouts
	statRootDelegatesCancelled
	statRootDelegateDeclines
	statRootBorrows
	statRootBorrowsCancelled
	statRootDelegated
	statRootBorrowFailures
	statRootFreed
	statRootDelegateFreesRetried
	statRootFreeLost

	statHotReturnObsolete
	statRelocateObsolete
	statRevokeObsolete
	statRackFreeObsolete
	statBorrowCancelObsolete
	statDelegateFreeObsolete
	statDelegateCancelObsolete

	statBeats
	statBeatsLost
	statReboots
	statHotRemoveOK
	statHotRemoveDeclined
	statHotReturnOK
	statHotReturnStale
	statHotReturnCancelled
	statHotReturnFailed
	statRelocateOK
	statRelocateStale
	statRelocateReplayed
	statRevoked
	statSpareDeclined
	statSpareAttached
	statSpareAttachStale

	numCounters
)

// counterNames names every counter: the key Get and Keys know it by.
var counterNames = [numCounters]string{
	statHeartbeats:           "heartbeats",
	statAllocMemory:          "alloc.memory",
	statAllocAccelerator:     "alloc.accelerator",
	statAllocNIC:             "alloc.nic",
	statAllocUnknown:         "alloc.unknown",
	statAllocMalformed:       "alloc.malformed",
	statAllocFailures:        "alloc.failures",
	statAllocDeadSkips:       "alloc.dead_skips",
	statAllocGrantTimeouts:   "alloc.grant_timeouts",
	statAllocRetries:         "alloc.retries",
	statFreeMemory:           "free.memory",
	statFreeDevice:           "free.device",
	statFreeDonorUnreachable: "free.donor_unreachable",
	statAdmitQueued:          "admit.queued",
	statAdmitQueueAdmits:     "admit.queue_admits",
	statAdmitDegraded:        "admit.degraded",
	statAdmitRejected:        "admit.rejected",
	statPreemptExhausted:     "preempt.exhausted",
	statPreemptMemory:        "preempt.memory",
	statPreemptDevice:        "preempt.device",
	statPreemptRevokeLost:    "preempt.revoke_lost",

	statRecoverRebootsSeen:      "recover.reboots_seen",
	statRecoverReappeared:       "recover.reappeared",
	statRecoverRebootRecoveries: "recover.reboot_recoveries",
	statRecoverDeaths:           "recover.deaths",
	statRecoverReclaimed:        "recover.reclaimed",
	statRecoverDevicesReclaimed: "recover.devices_reclaimed",
	statRecoverRacedFree:        "recover.raced_free",
	statRecoverRelocateLost:     "recover.relocate_lost",
	statRecoverReplaced:         "recover.replaced",
	statRecoverDevicesReplaced:  "recover.devices_replaced",
	statRecoverNS:               "recover.ns",
	statRecoverRelocateRetried:  "recover.relocate_retried",
	statRecoverRevokeRetried:    "recover.revoke_retried",
	statRecoverRevokeLost:       "recover.revoke_lost",
	statRecoverRevoked:          "recover.revoked",
	statRecoverDevicesDropped:   "recover.devices_dropped",
	statRecoverGrantTimeouts:    "recover.grant_timeouts",
	statRecoverRetries:          "recover.retries",
	statRecoverOrphanReturns:    "recover.orphan_returns",
	statRecoverSpareAttached:    "recover.spare_attached",
	statRecoverSpareStale:       "recover.spare_stale",
	statMigrateRacedFree:        "migrate.raced_free",
	statMigrateAborted:          "migrate.aborted",
	statMigrateMoved:            "migrate.moved",
	statMigrateNS:               "migrate.ns",
	statMigrateNoCandidate:      "migrate.no_candidate",
	statMigrateHotDetected:      "migrate.hot_detected",
	statSparePruned:             "spare.pruned",
	statSpareCarveLost:          "spare.carve_lost",
	statSpareCarveDeclined:      "spare.carve_declined",
	statSpareCarveObsolete:      "spare.carve_obsolete",
	statSpareCarved:             "spare.carved",

	statRackbeats:                "rackbeats",
	statRackbeatsLost:            "rackbeats.lost",
	statAllocUpstreamTimeouts:    "alloc.upstream_timeouts",
	statAllocCancelRetried:       "alloc.cancel_retried",
	statAllocCancelLost:          "alloc.cancel_lost",
	statAllocUpstreamDeclines:    "alloc.upstream_declines",
	statAllocDelegated:           "alloc.delegated",
	statDelegateDeclined:         "delegate.declined",
	statDelegateGranted:          "delegate.granted",
	statFreeUpstreamRetried:      "free.upstream_retried",
	statFreeUpstreamLost:         "free.upstream_lost",
	statFreeDelegated:            "free.delegated",
	statFreeDelegateBacked:       "free.delegate_backed",
	statFreeDelegateCancelled:    "free.delegate_cancelled",
	statRootRackbeats:            "root.rackbeats",
	statRootDelegateTimeouts:     "root.delegate_timeouts",
	statRootDelegatesCancelled:   "root.delegates_cancelled",
	statRootDelegateDeclines:     "root.delegate_declines",
	statRootBorrows:              "root.borrows",
	statRootBorrowsCancelled:     "root.borrows_cancelled",
	statRootDelegated:            "root.delegated",
	statRootBorrowFailures:       "root.borrow_failures",
	statRootFreed:                "root.freed",
	statRootDelegateFreesRetried: "root.delegate_frees_retried",
	statRootFreeLost:             "root.free_lost",

	statHotReturnObsolete:      "agent.hotreturn.obsolete",
	statRelocateObsolete:       "agent.relocate.obsolete",
	statRevokeObsolete:         "agent.revoke.obsolete",
	statRackFreeObsolete:       "root.free.obsolete",
	statBorrowCancelObsolete:   "root.borrowcancel.obsolete",
	statDelegateFreeObsolete:   "sub.delegatefree.obsolete",
	statDelegateCancelObsolete: "sub.delegatecancel.obsolete",

	statBeats:              "beats",
	statBeatsLost:          "beats.lost",
	statReboots:            "reboots",
	statHotRemoveOK:        "hotremove.ok",
	statHotRemoveDeclined:  "hotremove.declined",
	statHotReturnOK:        "hotreturn.ok",
	statHotReturnStale:     "hotreturn.stale",
	statHotReturnCancelled: "hotreturn.cancelled",
	statHotReturnFailed:    "hotreturn.failed",
	statRelocateOK:         "relocate.ok",
	statRelocateStale:      "relocate.stale",
	statRelocateReplayed:   "relocate.replayed",
	statRevoked:            "revoked",
	statSpareDeclined:      "spare.declined",
	statSpareAttached:      "spare.attached",
	statSpareAttachStale:   "spare.attach_stale",
}

// counterByName resolves a name to its counter, for Get; countersByName
// lists the counters in name order, for Keys.
var counterByName, countersByName = func() (map[string]counter, []counter) {
	by := make(map[string]counter, numCounters)
	order := make([]counter, numCounters)
	for c := range numCounters {
		by[counterNames[c]] = c
		order[c] = c
	}
	slices.SortFunc(order, func(a, b counter) int { return strings.Compare(counterNames[a], counterNames[b]) })
	return by, order
}()
