package transput

import (
	"fmt"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
)

// PassiveBuffer is a Unix-pipe-like Eject: it performs passive input
// in response to Deliver and passive output in response to Transfer,
// buffering in between.  §3: "Because entities like Unix pipes perform
// both buffering and passive transput, I will refer to them as passive
// buffers. ... The passive buffer provides the active transput
// operations with the necessary correspondents."
//
// It exists for the conventional-discipline baseline (Figure 1
// transliterated into Eden): connecting two active filters requires
// one of these between them, which is precisely the Eject and
// invocation overhead the read-only discipline eliminates.  It also
// reappears in the paper's §5 as the pragmatic fix for secondary
// streams under a single-pair discipline.
type PassiveBuffer struct {
	// ch is the pipe's one stream: a passive-input record whose
	// deliveries fill the buffer and whose Transfers drain it.  Never
	// retired, so its generation stays put.
	ch inBuf
}

// PassiveBufferConfig parameterises a PassiveBuffer.
type PassiveBufferConfig struct {
	Name string
	// Capacity bounds the buffer in items; 0 means DefaultCapacity,
	// negative means 1.
	Capacity int
	// Writers is the number of End marks that complete the stream
	// (fan-in degree); minimum 1.
	Writers int
}

// NewPassiveBuffer creates a passive buffer Eject.  k may be nil in
// unit tests (metering is then dropped).
func NewPassiveBuffer(k *kernel.Kernel, cfg PassiveBufferConfig) *PassiveBuffer {
	met := &metrics.Set{}
	if k != nil {
		met = k.Metrics()
	}
	b := new(PassiveBuffer)
	b.ch.reset(met, cfg.Name, Chan(0), capacityBound(cfg.Capacity, 1), cfg.Writers, b.ch.gate())
	return b
}

// EdenType implements kernel.Eject.
func (b *PassiveBuffer) EdenType() string { return "transput.PassiveBuffer" }

// Serve implements kernel.Eject, answering both stream directions on
// channel 0 (a pipe has exactly one stream).
func (b *PassiveBuffer) Serve(inv *kernel.Invocation) {
	ch := &b.ch
	switch inv.Op {
	case OpDeliver:
		req, ok := inv.Payload.(*DeliverRequest)
		if !ok {
			inv.Fail(kernel.ErrNoSuchOperation)
			return
		}
		ch.met.DeliverInvocations.Inc()
		ch.serveDeliver(inv, req, ch.generation(), StatusOK)
	case OpTransfer:
		req, ok := inv.Payload.(*TransferRequest)
		if !ok {
			inv.Fail(kernel.ErrNoSuchOperation)
			return
		}
		ch.met.TransferInvocations.Inc()
		ch.serveTransfer(inv, req, ch.generation(), StatusOK)
	case OpChannels:
		inv.Reply(&ChannelsReply{Channels: []ChannelAdvert{
			{Name: "Input", ID: Chan(0), Dir: "in"},
			{Name: "Output", ID: Chan(0), Dir: "out"},
		}})
	case OpAbort:
		req, ok := inv.Payload.(*AbortRequest)
		if !ok {
			inv.Fail(kernel.ErrNoSuchOperation)
			return
		}
		ch.abort(&AbortedError{Msg: req.Msg}, ch.generation(), false)
		inv.Reply(&AbortReply{})
	default:
		inv.Fail(fmt.Errorf("%w: %q on passive buffer %q", kernel.ErrNoSuchOperation, inv.Op, ch.name))
	}
}

// OnDeactivate aborts the buffer, releasing parked workers and dropping
// the backlog: the Eject is going away, so nothing will read it.
func (b *PassiveBuffer) OnDeactivate() {
	b.ch.abort(&AbortedError{Msg: "buffer deactivated"}, b.ch.generation(), false)
}

// Buffered reports the items currently queued.
func (b *PassiveBuffer) Buffered() int {
	b.ch.mu.Lock()
	defer b.ch.mu.Unlock()
	return b.ch.buffered()
}
