// Package smpplug implements the smp_plug device: intra-node,
// inter-process communication through a shared-memory segment, the second
// companion device of the paper's Fig. 3 configuration (§4.1, from the
// SMP implementation of MPI-BIP). Data crosses the segment with one copy
// in and one copy out, both charged at memcpy bandwidth.
package smpplug

import (
	"fmt"

	"mpichmad/internal/adi"
	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// segMsg is one message deposited in the shared segment.
type segMsg struct {
	env  adi.Envelope
	data *netsim.Buf // already copied into the segment by the sender; the receiver releases it
	// ack, when non-nil, is fired once the message is matched and
	// copied out (synchronous-mode sends).
	ack *vtime.Event
}

// Node is the shared-memory segment of one physical node: the rendezvous
// point for all smp_plug devices of processes on that node.
type Node struct {
	name   string
	inbox  map[int]*vtime.Queue[*segMsg] // per destination rank
	params netsim.Params
}

// NewNode creates a node segment.
func NewNode(s *vtime.Scheduler, name string) *Node {
	_ = s
	return &Node{
		name:   name,
		inbox:  make(map[int]*vtime.Queue[*segMsg]),
		params: netsim.SharedMemory(),
	}
}

// Device is the smp_plug device of one process.
type Device struct {
	node *Node
	proc *marcel.Proc
	eng  *adi.Engine
	rank int

	stopped bool
	// NMessages counts delivered intra-node messages.
	NMessages uint64
}

// Join attaches a process to the node segment and starts its receive
// thread. Every rank on the node must Join before traffic flows.
func (n *Node) Join(p *marcel.Proc, eng *adi.Engine, rank int) *Device {
	if _, dup := n.inbox[rank]; dup {
		panic(fmt.Sprintf("smpplug: rank %d already joined node %s", rank, n.name))
	}
	n.inbox[rank] = vtime.NewQueue[*segMsg](p.S, fmt.Sprintf("smp.%s.r%d", n.name, rank))
	d := &Device{node: n, proc: p, eng: eng, rank: rank}
	p.SpawnDaemon("smp_plug.recv", d.recvLoop)
	return d
}

// Name implements adi.Device.
func (d *Device) Name() string { return "smp_plug" }

// SwitchPoint implements adi.Device: the segment protocol is single-mode;
// the threshold reported is the preset's (used only for introspection).
func (d *Device) SwitchPoint() int { return d.node.params.SwitchPoint }

// Shutdown implements adi.Device.
func (d *Device) Shutdown() { d.stopped = true }

// Send implements adi.Device: copy into the segment (charged), signal the
// destination process.
func (d *Device) Send(sr *adi.SendReq) {
	q, ok := d.node.inbox[sr.Dst]
	if !ok {
		sr.Err = fmt.Errorf("smp_plug: rank %d is not on node %s", sr.Dst, d.node.name)
		sr.Done.Fire()
		return
	}
	p := &d.node.params
	d.proc.Charge(p.SendOverhead)
	d.proc.Charge(p.CopyTime(len(sr.Data))) // copy into the segment
	seg := d.eng.Bufs.Get(len(sr.Data))     // a slot of the segment, from the sender's list
	copy(seg.B, sr.Data)
	msg := &segMsg{env: sr.Env, data: seg}
	if sr.Sync {
		msg.ack = sr.Done
	}
	// The receiver observes the message one segment latency later.
	d.proc.S.After(p.WireLatency, func() { q.Push(msg) })
	if !sr.Sync {
		sr.Done.Fire()
	}
}

// recvLoop drains this rank's inbox: copy out of the segment into the
// matched buffer, or stash as unexpected.
func (d *Device) recvLoop() {
	p := &d.node.params
	spec := marcel.PollSpec{IdleCost: p.PollCost, Interval: p.PollInterval}
	q := d.node.inbox[d.rank]
	for !d.stopped {
		msg := marcel.WaitPoll(d.proc, q, spec)
		d.NMessages++
		d.proc.Charge(p.RecvOverhead)
		env := msg.env
		if r := d.eng.MatchPosted(env); r != nil {
			n, err := adi.CheckLen(r, env)
			d.proc.Charge(p.CopyTime(n)) // copy out of the segment
			msg.land(r, n, err)
			continue
		}
		d.eng.AddUnexpected(env, func(r *adi.RecvReq) {
			n, err := adi.CheckLen(r, env)
			d.proc.Charge(p.CopyTime(n))
			msg.land(r, n, err)
		})
	}
}

// land copies the first n bytes out of the segment (the caller charged the
// copy), frees the slot and completes the receive.
func (msg *segMsg) land(r *adi.RecvReq, n int, err error) {
	copy(r.Buf, msg.data.B[:n])
	msg.data.Release()
	adi.FinishRecv(r, msg.env, err)
	if msg.ack != nil {
		msg.ack.Fire()
	}
}

var _ adi.Device = (*Device)(nil)
