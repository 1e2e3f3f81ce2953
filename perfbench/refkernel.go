package main

import (
	"container/heap"
	"time"
)

// refNominal is refKernel's time at the reference speed: host times
// divided by the kernel's measured time and multiplied by refNominal
// read as if the machine always ran at that speed.
const refNominal = 16 * time.Millisecond

// refKernel runs a fixed amount of simulator-shaped work that uses none
// of the repository's code — a timer heap of freshly allocated events,
// a cancel table in a map, closure calls, and baton hand-offs between
// two goroutines over unbuffered channels — and returns its host time.
// It measures how fast the machine is running right now, so a change to
// the simulator cannot move it.
func refKernel() time.Duration {
	const steps, pending, switchEvery = 40_000, 512, 4
	start := time.Now()
	var h eventHeap
	table := make(map[uint64]*refEvent, pending)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var sum uint64
	for i := 0; i < pending; i++ {
		ev := &refEvent{at: next() % 4096, id: uint64(i)}
		ev.fn = func() { sum += ev.id }
		heap.Push(&h, ev)
		table[ev.id] = ev
	}
	baton, back := make(chan struct{}), make(chan struct{})
	go func() {
		for range baton {
			back <- struct{}{}
		}
		close(back)
	}()
	for i := 0; i < steps; i++ {
		ev := heap.Pop(&h).(*refEvent)
		delete(table, ev.id)
		ev.fn()
		nev := &refEvent{at: ev.at + 1 + next()%4096, id: uint64(pending + i)}
		nev.fn = func() { sum ^= nev.at }
		heap.Push(&h, nev)
		table[nev.id] = nev
		if i%switchEvery == 0 {
			baton <- struct{}{}
			<-back
		}
	}
	close(baton)
	for range back {
	}
	refSink = sum
	return time.Since(start)
}

// refSink keeps the kernel's result live.
var refSink uint64

type refEvent struct {
	at, id uint64
	fn     func()
}

type eventHeap []*refEvent

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}
