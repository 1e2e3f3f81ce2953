package accel

import (
	"testing"

	"repro/internal/sim"
)

func TestChunkStartsRideDataFIFO(t *testing.T) {
	// The write-with-immediate design guarantees a chunk's start request
	// can never reach the accelerator before its input data: both ride
	// the same FIFO link. The device must therefore never sit idle
	// waiting for a doorbell that raced ahead of its data.
	eng, p, recip, donor := pairNodes(t)
	dev := New(eng, &p, FFT{MBps: 10000, Setup: 0}) // compute ~free: transfer-bound
	svc := Serve(donor, dev)
	defer svc.Shutdown()
	svc.SetExclusive(0)
	client := NewClient(recip)
	h := client.Attach(1, 0)
	const n = 8 << 20
	var elapsed sim.Dur
	recip.Run("offload", func(pr *sim.Proc) {
		t0 := pr.Now()
		h.Run(pr, "fft", n)
		elapsed = pr.Now().Sub(t0)
	})
	eng.Run()
	// Transfer-bound floor: one direction's wire time. Ceiling: with
	// single-VC FIFO links the output read requests drain only after the
	// input stream, so input and output serialize at ~2x wire — but
	// never more (no doorbell race, no idle bubbles beyond that).
	wire := sim.DurFromSeconds(float64(n) * 8 / (p.LinkGbps * 1e9))
	if elapsed < wire {
		t.Fatalf("finished (%v) below one-direction wire time (%v)", elapsed, wire)
	}
	if elapsed > wire.Scale(2.2) {
		t.Fatalf("transfer-bound offload took %v, want <= ~2x wire time %v", elapsed, wire)
	}
}

func TestRunRejectsNonPositiveSize(t *testing.T) {
	eng, _, recip, donor := pairNodes(t)
	dev := New(eng, recip.P, FFT{MBps: 100})
	svc := Serve(donor, dev)
	defer svc.Shutdown()
	client := NewClient(recip)
	h := client.Attach(1, 0)
	panicked := false
	recip.Run("bad", func(pr *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		h.Run(pr, "fft", 0)
	})
	eng.Run()
	if !panicked {
		t.Fatal("zero-size task accepted")
	}
}

func TestMixedKernelsServeIndependently(t *testing.T) {
	eng, p, recip, donor := pairNodes(t)
	fft := New(eng, &p, FFT{MBps: 50, Setup: 0})
	crypto := New(eng, &p, Crypto{MBps: 400, Setup: 0})
	svc := Serve(donor, fft, crypto)
	defer svc.Shutdown()
	client := NewClient(recip)
	hf := client.Attach(1, 0)
	hc := client.Attach(1, 1)
	var fftT, cryptoT sim.Dur
	done := sim.NewGroup(eng)
	done.Add(2)
	eng.Go("f", func(pr *sim.Proc) {
		t0 := pr.Now()
		hf.Run(pr, "fft", 2<<20)
		fftT = pr.Now().Sub(t0)
		done.Done()
	})
	eng.Go("c", func(pr *sim.Proc) {
		t0 := pr.Now()
		hc.Run(pr, "crypto", 2<<20)
		cryptoT = pr.Now().Sub(t0)
		done.Done()
	})
	eng.Run()
	if fftT <= cryptoT {
		t.Fatalf("slow FFT (%v) should take longer than fast crypto (%v)", fftT, cryptoT)
	}
	// Crypto must not have queued behind the FFT: it finishes near its
	// own compute+transfer time, far below the FFT's.
	if cryptoT > fftT/2 {
		t.Fatalf("crypto (%v) appears serialized behind FFT (%v)", cryptoT, fftT)
	}
}
