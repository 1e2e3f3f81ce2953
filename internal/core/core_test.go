package core

import (
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/transport"
)

// acquireMem borrows remote memory for n through the unified Acquire
// surface — the spelling the deleted Borrow* wrappers used to hide.
func acquireMem(p *sim.Proc, c Plane, n *node.Node, size uint64, opts ...Option) (*MemoryLease, error) {
	l, err := c.Acquire(p, NewRequest(Memory, n, size, opts...))
	if err != nil {
		return nil, err
	}
	return l.(*MemoryLease), nil
}

func defaultCluster(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster(Config{StartAgents: true})
	t.Cleanup(c.Close)
	c.RunFor(1 * sim.Second) // populate the RRT
	return c
}

func TestClusterDefaultsMatchPrototype(t *testing.T) {
	c := defaultCluster(t)
	if len(c.Nodes) != 8 {
		t.Fatalf("nodes = %d, want 8 (Table 1)", len(c.Nodes))
	}
	if c.Net.Topo.Name != "mesh2x2x2" {
		t.Fatalf("topology = %s", c.Net.Topo.Name)
	}
	if c.Node(3).DRAMBytes != 1<<30 {
		t.Fatalf("node memory = %d, want 1 GiB", c.Node(3).DRAMBytes)
	}
	if !strings.Contains(c.String(), "8 nodes") {
		t.Fatalf("String = %q", c.String())
	}
}

func TestBorrowMemoryEndToEnd(t *testing.T) {
	c := defaultCluster(t)
	recipient := c.Node(7)
	const size = 128 << 20
	var lease *MemoryLease
	recipient.Run("borrow", func(p *sim.Proc) {
		var err error
		lease, err = acquireMem(p, c, recipient, size)
		if err != nil {
			t.Error(err)
			return
		}
		// Ordinary loads into the borrowed window work and hit the donor.
		recipient.Mem.Read(p, lease.WindowBase+4096, 64)
		recipient.Mem.Flush(p)
	})
	c.RunFor(30 * sim.Second)
	if lease == nil {
		t.Fatal("no lease")
	}
	if recipient.EP.CRMA.Stats.Fills != 1 {
		t.Fatalf("fills = %d", recipient.EP.CRMA.Stats.Fills)
	}
	donor := c.Nodes[lease.Donor()]
	if donor.MemMgr.Removed() != size {
		t.Fatalf("donor removed = %d", donor.MemMgr.Removed())
	}
	if donor.EP.CRMA.Stats.Served != 1 {
		t.Fatalf("donor served = %d", donor.EP.CRMA.Stats.Served)
	}
	if len(c.MN.Allocations()) != 1 {
		t.Fatalf("RAT rows = %d", len(c.MN.Allocations()))
	}
}

func TestLeaseReleaseReturnsMemory(t *testing.T) {
	c := defaultCluster(t)
	recipient := c.Node(7)
	recipient.Run("cycle", func(p *sim.Proc) {
		lease, err := acquireMem(p, c, recipient, 64<<20)
		if err != nil {
			t.Error(err)
			return
		}
		donor := c.Nodes[lease.Donor()]
		lease.Release(p)
		if donor.MemMgr.Removed() != 0 {
			t.Errorf("donor still donating %d bytes", donor.MemMgr.Removed())
		}
	})
	c.RunFor(60 * sim.Second)
	if n := len(c.MN.Allocations()); n != 0 {
		t.Fatalf("RAT rows after release = %d", n)
	}
}

func TestBorrowSwapAndMount(t *testing.T) {
	c := defaultCluster(t)
	c.P.ReadaheadPages = 1 // exact fault counts below
	recipient := c.Node(6)
	recipient.Run("swap", func(p *sim.Proc) {
		l, err := c.Acquire(p, NewRequest(Swap, recipient, 64<<20))
		if err != nil {
			t.Error(err)
			return
		}
		lease := l.(*SwapLease)
		base := recipient.NextHotplugWindow(64 << 20)
		paged, err := lease.Mount(base, 64<<20, 16)
		if err != nil {
			t.Error(err)
			return
		}
		// Dirty more pages than fit (writes), forcing evictions to the
		// device; then fault them back in over RDMA. The first pass needs
		// no device reads (zero-fill-on-demand).
		paged.SyncWriteback = true
		for i := uint64(0); i < 32; i++ {
			recipient.Mem.Write(p, base+i*4096, 8)
		}
		for i := uint64(0); i < 16; i++ {
			// Different line within the page, so the CPU cache cannot
			// serve it and the access reaches the paging layer.
			recipient.Mem.Read(p, base+i*4096+2048, 8)
		}
		recipient.Mem.Flush(p)
		if paged.Stats.MajorFault != 48 {
			t.Errorf("faults = %d, want 48", paged.Stats.MajorFault)
		}
		if paged.Stats.DirtyWrite == 0 {
			t.Error("no dirty writebacks")
		}
		if lease.Dev.PagesIn != 16 {
			t.Errorf("device pages in = %d, want 16", lease.Dev.PagesIn)
		}
		if lease.Dev.PagesOut == 0 {
			t.Error("no pages written to the device")
		}
		lease.Release(p)
	})
	c.RunFor(60 * sim.Second)
	if recipient.EP.RDMA.Stats.Reads != 16 {
		t.Fatalf("rdma reads = %d", recipient.EP.RDMA.Stats.Reads)
	}
}

func TestAttachAcceleratorViaMN(t *testing.T) {
	c := defaultCluster(t)
	donor := c.Node(3)
	dev := accel.New(c.Eng, c.P, accel.FFT{MBps: 200})
	svc := accel.Serve(donor, dev)
	defer svc.Shutdown()
	c.Agents[3].Devices[monitor.DevAccelerator] = 1
	c.RunFor(1 * sim.Second) // advertise

	recipient := c.Node(0)
	client := accel.NewClient(recipient)
	recipient.Run("offload", func(p *sim.Proc) {
		l, err := c.Acquire(p, NewRequest(Accel, recipient, 1, WithClient(client)))
		if err != nil {
			t.Error(err)
			return
		}
		lease := l.(*AccelLease)
		if lease.Donor() != 3 {
			t.Errorf("donor = %v, want n3", lease.Donor())
		}
		lease.Handle.Run(p, "fft", 1<<20)
		lease.Release(p)
	})
	c.RunFor(60 * sim.Second)
	if dev.Stats.Tasks == 0 {
		t.Fatal("accelerator never ran")
	}
}

func TestAttachNICViaMN(t *testing.T) {
	c := defaultCluster(t)
	c.Agents[2].Devices[monitor.DevNIC] = 1
	c.RunFor(1 * sim.Second)

	recipient := c.Node(0)
	recipient.Run("nic", func(p *sim.Proc) {
		l, err := c.Acquire(p, NewRequest(NIC, recipient, 1))
		if err != nil {
			t.Error(err)
			return
		}
		lease := l.(*NICLease)
		if lease.Donor() != 2 {
			t.Errorf("donor = %v, want n2", lease.Donor())
		}
		for i := 0; i < 10; i++ {
			lease.VNIC.Send(p, 256)
		}
		p.Sleep(1 * sim.Millisecond)
		lease.Release(p)
	})
	c.RunFor(60 * sim.Second)
}

func TestAdaptiveLibraryPicksChannels(t *testing.T) {
	c := defaultCluster(t)
	recipient := c.Node(7)
	var usedCRMA, usedRDMA, usedQP transport.Channel
	recipient.Run("adaptive", func(p *sim.Proc) {
		lease, err := acquireMem(p, c, recipient, 128<<20)
		if err != nil {
			t.Error(err)
			return
		}
		// The donor-side queue is unbounded and flow control is off, so no
		// sink process is needed for sends to complete.
		qa, _ := transport.ConnectQPair(recipient.EP, c.Nodes[lease.Donor()].EP, transport.QPairConfig{})
		ad := NewAdaptive(recipient, lease, qa)
		usedCRMA = ad.Get(p, 0, 64, transport.PatternRandom)
		usedRDMA = ad.Get(p, 4096, 1<<20, transport.PatternContiguous)
		ad.Message(p, 256)
		usedQP = transport.ChanQPair
		if qa.Stats.Sent != 1 {
			t.Errorf("Message sent %d QPair messages, want 1", qa.Stats.Sent)
		}
	})
	c.RunFor(10 * sim.Second)
	if usedCRMA != transport.ChanCRMA || usedRDMA != transport.ChanRDMA || usedQP != transport.ChanQPair {
		t.Fatalf("channels: %v %v %v", usedCRMA, usedRDMA, usedQP)
	}
}

func TestBorrowFailureSurfacesError(t *testing.T) {
	c := defaultCluster(t)
	recipient := c.Node(1)
	recipient.Run("toobig", func(p *sim.Proc) {
		if _, err := acquireMem(p, c, recipient, 16<<30); err == nil {
			t.Error("16 GiB borrow should fail on 1 GiB nodes")
		}
	})
	c.RunFor(30 * sim.Second)
}
