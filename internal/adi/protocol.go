package adi

import (
	"encoding/binary"
	"fmt"

	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// ChannelDevice is the paper's §2.2.1 "channel interface": the ~five
// low-level functions ("responsible for sending and receiving contiguous
// messages carrying data or control information") on top of which MPICH's
// portable ADI implements the short/eager/rendez-vous exchange protocols.
// ch_p4 provides this interface over TCP.
type ChannelDevice interface {
	// SendControl transmits a small control packet (possibly carrying
	// piggybacked data) to a destination rank, blocking until injected.
	SendControl(dst int, pkt []byte)
	// SendBulk transmits a bulk data block following a control packet,
	// blocking until injected.
	SendBulk(dst int, data []byte)
	// RecvControl blocks for the next control packet from any source. The
	// packet is only valid until the next RecvControl call.
	RecvControl() (src int, pkt []byte)
	// RecvBulk blocks for the next bulk block from src, copying it into
	// dst and charging the device's receive-side copy.
	RecvBulk(src int, dst []byte)
	// CopyCost returns the CPU time to copy n bytes between process
	// buffers on this device's path.
	CopyCost(n int) vtime.Duration
	// Close releases transport resources.
	Close()
}

// ctrlKind discriminates the generic protocol engine's control packets.
// A named type so exhaustiveness of the receive pump's dispatch switch is
// machine-checkable (madlint/pktswitch).
type ctrlKind uint8

// Control packet kinds for the generic protocol engine.
const (
	cShort    ctrlKind = iota + 1 // envelope + inline payload
	cEager                        // envelope; payload follows on the bulk stream
	cRndvReq                      // envelope + send id ("request" in Fig. 4b)
	cRndvOK                       // send id echo ("Ok_To_Send" in Fig. 4b)
	cRndvData                     // send id; payload follows on the bulk stream
	cTerm                         // shut down the receive pump
)

const ctrlFixed = 1 + 4*4 + 4 // kind | env{src,tag,ctx,len} | id

func encodeCtrl(kind ctrlKind, env Envelope, id uint32, inline []byte) []byte {
	buf := make([]byte, ctrlFixed+len(inline))
	buf[0] = byte(kind)
	le := binary.LittleEndian
	le.PutUint32(buf[1:], uint32(int32(env.Src)))
	le.PutUint32(buf[5:], uint32(int32(env.Tag)))
	le.PutUint32(buf[9:], uint32(int32(env.Context)))
	le.PutUint32(buf[13:], uint32(int32(env.Len)))
	le.PutUint32(buf[17:], id)
	copy(buf[ctrlFixed:], inline)
	return buf
}

func decodeCtrl(buf []byte) (kind ctrlKind, env Envelope, id uint32, inline []byte, err error) {
	if len(buf) < ctrlFixed {
		return 0, Envelope{}, 0, nil, fmt.Errorf("adi: truncated control packet (%d bytes)", len(buf))
	}
	le := binary.LittleEndian
	kind = ctrlKind(buf[0])
	env = Envelope{
		Src:     int(int32(le.Uint32(buf[1:]))),
		Tag:     int(int32(le.Uint32(buf[5:]))),
		Context: int(int32(le.Uint32(buf[9:]))),
		Len:     int(int32(le.Uint32(buf[13:]))),
	}
	id = le.Uint32(buf[17:])
	return kind, env, id, buf[ctrlFixed:], nil
}

// ProtoConfig sets the generic engine's protocol switch points
// ("protocol selection in MPICH is based on a set of device-specific
// parameters defined at initialization time", §2.2.1).
type ProtoConfig struct {
	// ShortLimit: payloads up to this travel inside the control packet
	// ("short" protocol: data delivered together with the envelope).
	ShortLimit int
	// RndvThreshold: payloads above it use rendez-vous; in between they
	// use eager.
	RndvThreshold int
}

// ProtoDevice is the portable ADI implementation over a ChannelDevice:
// the short, eager and rendez-vous data exchange protocols of §2.2.1.
// ch_p4 = ProtoDevice + a TCP ChannelDevice.
type ProtoDevice struct {
	name string
	eng  *Engine
	dev  ChannelDevice
	cfg  ProtoConfig

	nextID  uint32
	pending map[uint32]*SendReq     // sender side: rndv awaiting OK
	rndvRx  map[[2]uint32]*rndvRecv // receiver side: (src,id) -> matched recv
	stopped bool
}

// rndvRecv pairs a matched receive with the envelope from its rndv
// request until the data message lands.
type rndvRecv struct {
	r   *RecvReq
	env Envelope
}

// NewProtoDevice builds the generic protocol engine and starts its receive
// pump thread.
func NewProtoDevice(name string, eng *Engine, dev ChannelDevice, cfg ProtoConfig) *ProtoDevice {
	if cfg.ShortLimit <= 0 {
		cfg.ShortLimit = 1024
	}
	if cfg.RndvThreshold <= 0 {
		cfg.RndvThreshold = 64 << 10
	}
	d := &ProtoDevice{
		name:    name,
		eng:     eng,
		dev:     dev,
		cfg:     cfg,
		pending: make(map[uint32]*SendReq),
		rndvRx:  make(map[[2]uint32]*rndvRecv),
	}
	eng.P.SpawnDaemon(name+".pump", d.pump)
	return d
}

// Name implements Device.
func (d *ProtoDevice) Name() string { return d.name }

// Shutdown implements Device.
func (d *ProtoDevice) Shutdown() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.dev.Close()
}

// Send implements Device: pick a protocol by message size and run it.
func (d *ProtoDevice) Send(sr *SendReq) {
	n := len(sr.Data)
	switch {
	case sr.Sync:
		// Synchronous mode: always rendez-vous, so completion implies
		// the receiver matched.
		d.nextID++
		id := d.nextID
		d.pending[id] = sr
		d.dev.SendControl(sr.Dst, encodeCtrl(cRndvReq, sr.Env, id, nil))
	case n <= d.cfg.ShortLimit:
		d.dev.SendControl(sr.Dst, encodeCtrl(cShort, sr.Env, 0, sr.Data))
		sr.Done.Fire()
	case n <= d.cfg.RndvThreshold:
		d.dev.SendControl(sr.Dst, encodeCtrl(cEager, sr.Env, 0, nil))
		d.dev.SendBulk(sr.Dst, sr.Data)
		sr.Done.Fire()
	default:
		d.nextID++
		id := d.nextID
		d.pending[id] = sr
		d.dev.SendControl(sr.Dst, encodeCtrl(cRndvReq, sr.Env, id, nil))
		// Done fires when the OK comes back and the data has been sent.
	}
}

// pump is the device's receive loop: dispatch each incoming control packet
// per Fig. 4's transfer mode diagrams.
func (d *ProtoDevice) pump() {
	for {
		src, pkt := d.dev.RecvControl()
		kind, env, id, inline, err := decodeCtrl(pkt)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", d.name, err))
		}
		switch kind {
		case cTerm:
			return
		case cShort:
			d.inShort(env, inline)
		case cEager:
			d.inEager(src, env)
		case cRndvReq:
			d.inRndvReq(src, env, id)
		case cRndvOK:
			d.inRndvOK(src, id)
		case cRndvData:
			d.inRndvData(src, id)
		default:
			panic(fmt.Sprintf("%s: unknown control kind %d from %d", d.name, kind, src))
		}
	}
}

func (d *ProtoDevice) inShort(env Envelope, inline []byte) {
	if r := d.eng.MatchPosted(env); r != nil {
		n, err := CheckLen(r, env)
		d.eng.P.Charge(d.dev.CopyCost(n))
		netsim.Copy(r.Buf, inline[:n])
		FinishRecv(r, env, err)
		return
	}
	stash := d.eng.Bufs.Get(len(inline))
	netsim.Copy(stash.B, inline)
	d.eng.AddUnexpected(env, func(r *RecvReq) { d.landStash(r, env, stash) })
}

// landStash completes a receive from a stashed payload: one more charged
// copy into the user's buffer, then the stash goes home.
func (d *ProtoDevice) landStash(r *RecvReq, env Envelope, stash *netsim.Buf) {
	n, err := CheckLen(r, env)
	d.eng.P.Charge(d.dev.CopyCost(n))
	netsim.Copy(r.Buf, stash.B[:n])
	stash.Release()
	FinishRecv(r, env, err)
}

// drain pulls a whole bulk block off src's stream into a stash.
func (d *ProtoDevice) drain(src int, env Envelope) *netsim.Buf {
	tmp := d.eng.Bufs.Get(env.Len)
	d.dev.RecvBulk(src, tmp.B)
	return tmp
}

func (d *ProtoDevice) inEager(src int, env Envelope) {
	if r := d.eng.MatchPosted(env); r != nil {
		if n, _ := CheckLen(r, env); n == env.Len {
			d.dev.RecvBulk(src, r.Buf[:n])
			FinishRecv(r, env, nil)
		} else {
			// Truncating receive still must drain the stream.
			d.landStash(r, env, d.drain(src, env))
		}
		return
	}
	// Unexpected eager: the stream must be drained now into a temporary
	// buffer; the eventual receive pays one more copy. This is ch_p4's
	// well-known unexpected-message penalty.
	tmp := d.drain(src, env)
	d.eng.AddUnexpected(env, func(r *RecvReq) { d.landStash(r, env, tmp) })
}

func (d *ProtoDevice) inRndvReq(src int, env Envelope, id uint32) {
	key := [2]uint32{uint32(src), id}
	if r := d.eng.MatchPosted(env); r != nil {
		d.rndvRx[key] = &rndvRecv{r: r, env: env}
		d.dev.SendControl(src, encodeCtrl(cRndvOK, env, id, nil))
		return
	}
	d.eng.AddUnexpected(env, func(r *RecvReq) {
		d.rndvRx[key] = &rndvRecv{r: r, env: env}
		d.dev.SendControl(src, encodeCtrl(cRndvOK, env, id, nil))
	})
}

func (d *ProtoDevice) inRndvOK(src int, id uint32) {
	sr := d.pending[id]
	if sr == nil {
		panic(fmt.Sprintf("%s: rndv OK for unknown send id %d", d.name, id))
	}
	delete(d.pending, id)
	d.dev.SendControl(sr.Dst, encodeCtrl(cRndvData, sr.Env, id, nil))
	d.dev.SendBulk(sr.Dst, sr.Data)
	sr.Done.Fire()
}

func (d *ProtoDevice) inRndvData(src int, id uint32) {
	key := [2]uint32{uint32(src), id}
	rr := d.rndvRx[key]
	if rr == nil {
		panic(fmt.Sprintf("%s: rndv data for unknown id %d from %d", d.name, id, src))
	}
	delete(d.rndvRx, key)
	if n, err := CheckLen(rr.r, rr.env); err != nil {
		// Drain the full stream, keep what fits.
		d.landStash(rr.r, rr.env, d.drain(src, rr.env))
	} else {
		d.dev.RecvBulk(src, rr.r.Buf[:n])
		FinishRecv(rr.r, rr.env, nil)
	}
}
