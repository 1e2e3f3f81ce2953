package accel

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/node"
	"repro/internal/sim"
)

// Task is one mailbox entry: Fig. 11's request buffer (which executable
// to run), input buffer descriptor, return buffer descriptor, and the
// start/completion flags — here condensed to what the timing model
// needs.
type Task struct {
	Exec  string
	Bytes int
	done  *sim.Completion
}

// Mailbox is the pinned-buffer message interface in front of one
// accelerator on the donor node.
type Mailbox struct {
	ID    int
	Accel *Accelerator
	queue *sim.Queue[*Task]
}

// Service hosts a donor node's accelerators: it owns their mailboxes and
// runs the kernel thread that launches tasks on behalf of recipients.
type Service struct {
	Node  *node.Node
	boxes []*Mailbox
	// exclusive holds the mailbox ids driven through the direct path
	// (SetExclusive).
	exclusive map[int]bool
}

// accelStartMsg rings a mailbox from a remote recipient: the note that
// rides the RDMA write-with-immediate carrying the task's input.
type accelStartMsg struct {
	Mailbox int
	Exec    string
	Bytes   int
	Tag     uint64
}

// accelDoneMsg reports completion back to the recipient.
type accelDoneMsg struct {
	Tag uint64
}

// Serve installs accelerators on a donor node and starts one kernel
// thread per mailbox. Remote starts arrive as RDMA write-with-immediate
// notes riding the input data.
func Serve(n *node.Node, accels ...*Accelerator) *Service {
	s := &Service{Node: n, exclusive: make(map[int]bool)}
	for i, a := range accels {
		mb := &Mailbox{ID: i, Accel: a, queue: sim.NewQueue[*Task](n.Eng)}
		s.boxes = append(s.boxes, mb)
		s.runKernelThread(mb)
	}
	n.EP.RDMA.ObserveImmediate(func(from fabric.NodeID, _ uint64, note any) {
		m, ok := note.(*accelStartMsg)
		if !ok {
			return
		}
		s.start(from, m)
	})
	return s
}

// Count reports the number of hosted accelerators.
func (s *Service) Count() int { return len(s.boxes) }

// Accelerator returns the device behind mailbox id.
func (s *Service) Accelerator(id int) *Accelerator { return s.boxes[id].Accel }

// runKernelThread processes one mailbox: poll, launch, complete — the
// donor-side software of Fig. 11.
func (s *Service) runKernelThread(mb *Mailbox) {
	s.Node.Eng.Go(fmt.Sprintf("accel-kthread%d@%v", mb.ID, s.Node.ID), func(p *sim.Proc) {
		for {
			task := mb.queue.Pop(p)
			if task == nil {
				return // shutdown sentinel
			}
			// Mailbox processing by the kernel thread (skipped when the
			// recipient drives the device directly).
			if !s.exclusive[mb.ID] {
				p.Sleep(s.Node.P.AccelMailboxOp)
			}
			mb.Accel.Exec(p, task.Bytes)
			task.done.Complete()
		}
	})
}

// Shutdown stops the kernel threads after their current task.
func (s *Service) Shutdown() {
	for _, mb := range s.boxes {
		mb.queue.TryPush(nil)
	}
}

// SetExclusive puts mailbox id on the optimized, exclusively-mapped
// path: its access interface is mapped to its one recipient like a
// shared memory region, bypassing the kernel thread's mailbox handling.
func (s *Service) SetExclusive(id int) {
	s.exclusive[id] = true
}

// Submit enqueues a task locally (used by both the local path and the
// message handler) and returns its completion.
func (s *Service) Submit(mbID int, exec string, bytes int) *sim.Completion {
	mb := s.boxes[mbID]
	t := &Task{Exec: exec, Bytes: bytes, done: sim.NewCompletion(s.Node.Eng)}
	mb.queue.TryPush(t)
	return t.done
}

// start enqueues a remotely-requested task and replies with a completion
// message when it drains.
func (s *Service) start(from fabric.NodeID, m *accelStartMsg) {
	done := s.Submit(m.Mailbox, m.Exec, m.Bytes)
	tag := m.Tag
	done.Then(func() {
		// Completion flag write back to the recipient (small message).
		s.Node.EP.SendRaw(from, "accel.done", 8, &accelDoneMsg{Tag: tag})
	})
}
