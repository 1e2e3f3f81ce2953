package accel

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/node"
	"repro/internal/sim"
)

// TestRemoteRunSteadyStateAllocs is the device path's allocation gate
// for accelerators. Once warm, a Run of one chunk or of three allocates
// nothing on either side: the recipient takes a pooled call record with
// its chunk records and their read-back completions, the start notes
// ride inside the chunk records, the donor fills a pooled task and sets
// the completion flag with a notice on a recycled wire, and the RDMA
// channel recycles its records and packets.
func TestRemoteRunSteadyStateAllocs(t *testing.T) {
	for _, row := range []struct {
		name   string
		chunks int
	}{{"one-chunk", 1}, {"three-chunks", 3}} {
		t.Run(row.name, func(t *testing.T) {
			eng, _, recip, donor := pairNodes(t)
			recip.P.AccelChunkBytes = 64 << 10
			dev := New(eng, recip.P, FFT{MBps: 1000, Setup: sim.Microsecond})
			svc := Serve(donor, dev)
			defer svc.Shutdown()
			h := NewClient(recip).Attach(1, 0)
			runs := 0
			eng.Go("offload", func(p *sim.Proc) {
				for {
					h.Run(p, "fft", row.chunks*recip.P.AccelChunkBytes)
					runs++
				}
			})
			eng.RunFor(5 * sim.Millisecond)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			warm := runs
			runtime.ReadMemStats(&before)
			eng.RunFor(100 * sim.Millisecond)
			runtime.ReadMemStats(&after)
			if runs -= warm; runs < 100 {
				t.Fatalf("only %d runs in the window", runs)
			}
			// Mallocs counts the whole process, so allow one stray
			// allocation elsewhere per hundred runs.
			if got := float64(after.Mallocs-before.Mallocs) / float64(runs); got > 0.01 {
				t.Fatalf("steady-state Run allocates %.3f objects, want 0", got)
			}
		})
	}
}

// BenchmarkAccelRun measures one warm remote offload of a 64 KiB task,
// one pipeline chunk: the doorbell, the input RDMA write with its start
// note, the donor's mailbox and kernel thread, the completion flag, and
// the result read-back.
func BenchmarkAccelRun(b *testing.B) {
	eng, _, recip, donor := pairNodes(b)
	recip.P.AccelChunkBytes = 64 << 10
	dev := New(eng, recip.P, FFT{MBps: 1000, Setup: sim.Microsecond})
	svc := Serve(donor, dev)
	defer svc.Shutdown()
	h := NewClient(recip).Attach(1, 0)
	run := func(n int) {
		eng.Go("offload", func(p *sim.Proc) {
			for range n {
				h.Run(p, "fft", 64<<10)
			}
		})
		eng.Run()
	}
	run(100)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// TestConcurrentRunsOnOneHandle: device-churn's two workers share their
// handles. Each Run waits on its own call record, so two procs running
// tasks through one handle at once return at the same instants as
// through two handles on the same mailbox, whose Runs share nothing.
func TestConcurrentRunsOnOneHandle(t *testing.T) {
	run := func(shared bool) [2]sim.Time {
		eng, _, recip, donor := pairNodes(t)
		recip.P.AccelChunkBytes = 64 << 10
		dev := New(eng, recip.P, FFT{MBps: 500})
		svc := Serve(donor, dev)
		defer svc.Shutdown()
		c := NewClient(recip)
		h := [2]*RemoteHandle{c.Attach(1, 0), c.Attach(1, 0)}
		if shared {
			h[1] = h[0]
		}
		var done [2]sim.Time
		for i, n := range []int{3 << 16, 1 << 16} {
			eng.Go("worker", func(p *sim.Proc) {
				p.Sleep(sim.Dur(i) * 20 * sim.Microsecond)
				for range 3 {
					h[i].Run(p, "fft", n)
				}
				done[i] = p.Now()
			})
		}
		eng.Run()
		return done
	}
	got, want := run(true), run(false)
	if want[0] == 0 || want[1] == 0 {
		t.Fatalf("a worker never finished on two handles: %v", want)
	}
	if got != want {
		t.Fatalf("workers sharing a handle finished at %v, on two handles at %v", got, want)
	}
}

// TestRetargetedChunkIsNotReused: a handle is retargeted from donor 1 to
// donor 2 just as the read-back of its one outstanding chunk leaves for
// donor 1, so the chunk is replayed on donor 2 and two answers race.
//
//   - "late-flag": donor 1's read-back finishes the chunk, and donor 2's
//     completion flag for it comes after the next Run has started.
//   - "late-read-back": donor 1's link back is slowed, so donor 2's flag
//     and read-back finish the chunk, and donor 1's read-back lands
//     during the next Run.
//
// Either way the chunk finishes once and the late answer is dropped:
// the next Run on donor 2 takes exactly as long as the one after it. A
// pool that reused the retargeted chunk record under a new tag would
// let donor 1's late read-back complete the next Run's chunk early.
func TestRetargetedChunkIsNotReused(t *testing.T) {
	for _, row := range []struct {
		name string
		slow bool
	}{{"late-flag", false}, {"late-read-back", true}} {
		t.Run(row.name, func(t *testing.T) {
			eng := sim.New()
			t.Cleanup(eng.Close)
			p := sim.Default()
			p.AccelChunkBytes = 64 << 10
			net := fabric.NewNetwork(eng, &p, fabric.Star(3), sim.NewRNG(1))
			recip := node.New(eng, &p, net, 0, 1<<30)
			var devs [3]*Accelerator
			for i := 1; i < 3; i++ {
				devs[i] = New(eng, &p, FFT{MBps: 1000})
				defer Serve(node.New(eng, &p, net, fabric.NodeID(i), 1<<30), devs[i]).Shutdown()
			}
			h := NewClient(recip).Attach(1, 0)
			var ends [3]sim.Time
			var old *chunk
			premise := true
			eng.Go("offload", func(pr *sim.Proc) {
				for i := range ends {
					h.Run(pr, "fft", p.AccelChunkBytes)
					ends[i] = pr.Now()
					if i == 0 {
						// The race is still on when the next Run starts.
						premise = row.slow && !old.rd.Done() || !row.slow && !old.started
					}
				}
			})
			for old == nil || !old.started {
				eng.Step()
				if len(h.live) > 0 {
					old = h.live[0].chunks[0]
				}
			}
			if row.slow {
				net.Link(1, 0).SetGbps(1.3)
			}
			h.Retarget(2)
			eng.Run()
			if !premise {
				t.Fatal("test premise broken: the race was settled before the next Run started")
			}
			if !old.finished || !old.rd.Done() || h.Replays != 1 {
				t.Fatalf("retargeted chunk: finished %v, first read-back done %v, replays %d", old.finished, old.rd.Done(), h.Replays)
			}
			if devs[1].Stats.Tasks != 1 || devs[2].Stats.Tasks != 3 {
				t.Fatalf("donors ran %d and %d tasks, want 1 and 3", devs[1].Stats.Tasks, devs[2].Stats.Tasks)
			}
			if next, clean := ends[1].Sub(ends[0]), ends[2].Sub(ends[1]); next != clean {
				t.Fatalf("the Run after the retarget took %v, the one after it %v", next, clean)
			}
		})
	}
}

// TestRunKeepsCompletionSlots pins where a remote Run's completion
// events fire among other events at the same instants: the donor's
// task end, which sends the completion flag; the read-back's landing,
// which finishes the chunk; and the Run's return. At each instant an
// event queued at time 0 chains three more, and each logs the packets
// donor 1 has sent back, whether the Run has returned, and the events
// fired so far. The golden log was taken with a fresh completion per
// task, per read-back and per Run; the pooled records must reproduce it.
func TestRunKeepsCompletionSlots(t *testing.T) {
	// The first run finds the instants: the flag leaves with donor 1's
	// second packet (the input write's ack is the first), and the Run
	// returns at ret.
	var flag, ret sim.Time
	completionSlotLog(t, func(eng *sim.Engine, net *fabric.Network, returned *bool) {
		for net.Link(1, 0).Stats().Packets < 2 && eng.Step() {
		}
		flag = eng.Now()
		for !*returned && eng.Step() {
		}
		ret = eng.Now()
	})
	var got []string
	completionSlotLog(t, func(eng *sim.Engine, net *fabric.Network, returned *bool) {
		fired0 := eng.Fired()
		around := func(at sim.Time, name string) {
			note := func(i int) {
				got = append(got, fmt.Sprintf("%s-%d back=%d returned=%v fired=%d", name, i, net.Link(1, 0).Stats().Packets, *returned, eng.Fired()-fired0))
			}
			var chain func(i int) func()
			chain = func(i int) func() {
				return func() {
					note(i)
					if i < 4 {
						eng.Schedule(0, chain(i+1))
					}
				}
			}
			eng.At(at, chain(1))
		}
		around(flag, "flag")
		around(ret, "ret")
		eng.Run()
	})
	want := []string{
		"flag-1 back=1 returned=false fired=43", "flag-2 back=1 returned=false fired=45",
		"flag-3 back=2 returned=false fired=47", "flag-4 back=2 returned=false fired=48",
		"ret-1 back=18 returned=false fired=102", "ret-2 back=18 returned=false fired=104",
		"ret-3 back=18 returned=false fired=106", "ret-4 back=18 returned=true fired=108",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("firing order:\n got %q\nwant %q", got, want)
	}
}

// completionSlotLog builds a pair, donor 1 serving one accelerator, and
// a proc on node 0 that offloads one 64 KiB chunk, then hands the
// engine to run before anything has fired.
func completionSlotLog(t *testing.T, run func(eng *sim.Engine, net *fabric.Network, returned *bool)) {
	eng := sim.New()
	t.Cleanup(eng.Close)
	p := sim.Default()
	p.AccelChunkBytes = 64 << 10
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	recip := node.New(eng, &p, net, 0, 1<<30)
	svc := Serve(node.New(eng, &p, net, 1, 1<<30), New(eng, &p, FFT{MBps: 1000, Setup: sim.Microsecond}))
	t.Cleanup(svc.Shutdown)
	h := NewClient(recip).Attach(1, 0)
	returned := false
	eng.Go("offload", func(pr *sim.Proc) {
		h.Run(pr, "fft", 64<<10)
		returned = true
	})
	run(eng, net, &returned)
}

// TestStartNoteForAbsentMailboxIsDropped: a start note naming a mailbox
// the donor does not host, below or beyond its range, is counted and
// dropped in the event that delivers it, where indexing the mailbox
// would panic the simulation. Its Run never completes.
func TestStartNoteForAbsentMailboxIsDropped(t *testing.T) {
	for _, mb := range []int{-1, 1, 5} {
		eng, _, recip, donor := pairNodes(t)
		dev := New(eng, recip.P, FFT{MBps: 1000})
		svc := Serve(donor, dev)
		h := NewClient(recip).Attach(1, mb)
		returned := false
		eng.Go("offload", func(p *sim.Proc) {
			h.Run(p, "fft", 64<<10)
			returned = true
		})
		eng.Run()
		svc.Shutdown()
		if svc.BadStarts != 1 || returned || dev.Stats.Tasks != 0 {
			t.Fatalf("mailbox %d: %d notes dropped, Run returned %v, device ran %d tasks; want 1, false, 0",
				mb, svc.BadStarts, returned, dev.Stats.Tasks)
		}
	}
}
