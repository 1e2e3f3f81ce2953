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
// needs. A Service pools its tasks: a task's life runs from the start
// note that fills it to the event that sets its completion flag.
type Task struct {
	Exec  string
	Bytes int

	s      *Service
	from   fabric.NodeID
	tag    uint64
	flag   func(from fabric.NodeID, tag uint64) // the recipient's completion flag
	onDone func()
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
	tasks     []*Task // idle task records

	// BadStarts counts start notes that named a mailbox this donor does
	// not host; each was dropped.
	BadStarts int64
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
		m, ok := note.(*startNote)
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
			s.Node.Eng.Schedule(0, task.onDone)
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

// start enqueues a remotely-requested task on the mailbox its note
// names. A note naming a mailbox this donor does not host is counted
// and dropped: its chunk never completes here.
func (s *Service) start(from fabric.NodeID, m *startNote) {
	if m.mailbox < 0 || m.mailbox >= len(s.boxes) {
		s.BadStarts++
		return
	}
	t := pop(&s.tasks)
	if t == nil {
		t = &Task{s: s}
		t.onDone = t.done
	}
	t.Exec, t.Bytes, t.from, t.tag, t.flag = m.exec, m.bytes, from, m.tag, m.flag
	s.boxes[m.mailbox].queue.TryPush(t)
}

// done sets the recipient's completion flag (a small message back) and
// puts the task back.
func (t *Task) done() {
	s, from, flag, tag := t.s, t.from, t.flag, t.tag
	t.Exec, t.flag = "", nil
	s.tasks = append(s.tasks, t)
	s.Node.EP.Notify(from, "accel.done", 8, flag, tag)
}
