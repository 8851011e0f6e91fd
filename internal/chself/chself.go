// Package chself implements the ch_self loop-back device: intra-process
// communication (a rank sending to itself), one of the three devices of
// the paper's Fig. 3 configuration. It is part of the SMP implementation
// of MPI-BIP that the paper reuses (§4.1).
package chself

import (
	"mpichmad/internal/adi"
	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
)

// Device is the per-process loop-back device. A self-send is always
// "eager": the data moves with one charged memcpy through the matching
// queues of the process's own engine.
type Device struct {
	proc   *marcel.Proc
	eng    *adi.Engine
	params netsim.Params

	// NMessages counts loop-back messages for tests.
	NMessages uint64
}

// New creates the loop-back device with the standard intra-process cost
// model.
func New(p *marcel.Proc, eng *adi.Engine) *Device {
	return &Device{proc: p, eng: eng, params: netsim.Loopback()}
}

// Name implements adi.Device.
func (d *Device) Name() string { return "ch_self" }

// SwitchPoint implements adi.Device: a self-send has no remote side to
// rendez-vous with, so every message is eager.
func (d *Device) SwitchPoint() int { return d.params.SwitchPoint }

// Shutdown implements adi.Device (nothing to stop).
func (d *Device) Shutdown() {}

// Send implements adi.Device. The message is matched immediately against
// the process's own posted queue; unmatched data is stashed (one extra
// copy) exactly like a network device's unexpected path.
func (d *Device) Send(sr *adi.SendReq) {
	d.NMessages++
	env := sr.Env
	d.proc.Charge(d.params.SendOverhead)
	if r := d.eng.MatchPosted(env); r != nil {
		n, err := adi.CheckLen(r, env)
		d.proc.Charge(d.params.CopyTime(n))
		copy(r.Buf, sr.Data[:n])
		adi.FinishRecv(r, env, err)
		sr.Done.Fire()
		return
	}
	// Unexpected: snapshot now so the sender may reuse its buffer the
	// moment Send completes (MPI contract), deliver on match.
	stash := d.eng.Bufs.Get(len(sr.Data))
	d.proc.Charge(d.params.CopyTime(len(sr.Data)))
	copy(stash.B, sr.Data)
	// The match may come after a standard send has completed and its
	// request has gone back to a free list: only a synchronous one is
	// still the sender's then.
	sync := sr.Sync
	d.eng.AddUnexpected(env, func(r *adi.RecvReq) {
		n, err := adi.CheckLen(r, env)
		d.proc.Charge(d.params.CopyTime(n))
		copy(r.Buf, stash.B[:n])
		stash.Release()
		adi.FinishRecv(r, env, err)
		if sync {
			sr.Done.Fire()
		}
	})
	if !sr.Sync {
		sr.Done.Fire()
	}
	// Synchronous self-sends complete at match time (above). A
	// synchronous self-send with no posted receive and no later match
	// deadlocks — exactly MPI's semantics for MPI_Ssend to self.
}

var _ adi.Device = (*Device)(nil)
