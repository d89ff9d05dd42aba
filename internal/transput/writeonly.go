//transput:discipline writeonly

package transput

import (
	"fmt"
	"io"
	"sync"
	"time"
	"unsafe"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// This file implements the "write only" discipline of §5 — the exact
// dual of read-only transput.  "Data sources would continually attempt
// to perform write invocations, and sinks would always be ready to
// accept them. ... Within an Eject, a conventional Read routine could
// be implemented by extracting data from an internal buffer; another
// process would respond to incoming Write invocations and use the data
// thus obtained to fill the same buffer."
//
// WOInPort is that internal buffer plus the responder (passive input);
// Pusher is the active-output client that issues Deliver invocations.
//
// The duality of fan-in/fan-out is visible directly in the code: a
// WOInPort channel cannot tell its writers apart (deliveries merge
// indistinguishably — "F cannot distinguish this from one Eject making
// the same total number of invocations", dualised), while one Eject
// may hold any number of Pushers (arbitrary fan-out).

// WOInPort is the passive-input half: a registry of channels that
// accept Deliver invocations into bounded buffers, read locally by the
// owning Eject through ChannelReader.
type WOInPort struct {
	passivePort[*inBuf]
}

// WOInPortConfig parameterises a WOInPort.
type WOInPortConfig struct {
	// Capacity bounds each channel's buffer in items; 0 means
	// DefaultCapacity, negative means 1 (Deliver-at-a-time handoff —
	// a zero-capacity passive input could never accept anything).
	Capacity int
	// CapabilityMode requires Deliver requests to quote a minted UID.
	CapabilityMode bool
}

// NewWOInPort creates a passive-input port.  k may be nil in unit
// tests.
func NewWOInPort(k *kernel.Kernel, cfg WOInPortConfig) *WOInPort {
	p := new(WOInPort)
	p.init(k, cfg.CapabilityMode, "in", &inBufPool, unsafe.Sizeof(inBuf{}))
	return p
}

// Declare creates a channel accepting deliveries and returns the
// reader the owning Eject uses to consume it.  writers is the number
// of End marks that complete the stream (the fan-in degree; minimum
// 1).  capacity <= -1 selects single-item handoff; 0 selects
// DefaultCapacity.
func (p *WOInPort) Declare(name string, num ChannelNum, capacity, writers int) *ChannelReader {
	ch, gen := p.declare(name, num, capacityBound(capacity, 1), writers)
	return &ChannelReader{ch: ch, gen: gen}
}

// Retire tears down a channel (see passivePort.retire).  It reports
// whether this call performed the teardown.
func (p *WOInPort) Retire(r *ChannelReader) bool { return p.retire(r.ch, r.gen) }

// ServeDeliver handles one Deliver invocation.
func (p *WOInPort) ServeDeliver(inv *kernel.Invocation) {
	req, ok := inv.Payload.(*DeliverRequest)
	if !ok {
		inv.Fail(kernel.ErrNoSuchOperation)
		return
	}
	p.met.DeliverInvocations.Inc()
	ch, gen, st := p.lookup(req.Channel)
	if st != StatusOK {
		wire.ReleaseAll(req.Items) // never absorbed
		inv.Reply(&DeliverReply{Status: st})
		return
	}
	ch.serveDeliver(inv, req, gen, p.table.missStatus())
}

// serveDeliver answers a Deliver against c at generation gen (miss is
// the status for a retire that won the race between lookup and lock).
// The reply is withheld until every item fits in the buffer — the
// blocking IS passive input.
func (c *inBuf) serveDeliver(inv *kernel.Invocation, req *DeliverRequest, gen uint64, miss Status) {
	c.mu.Lock()
	if c.gen.Load() != gen {
		c.mu.Unlock()
		wire.ReleaseAll(req.Items)
		inv.Reply(&DeliverReply{Status: miss})
		return
	}
	credits, aborted := c.absorb(req)
	c.mu.Unlock()
	if aborted != nil {
		inv.Reply(&DeliverReply{Status: StatusAborted, AbortMsg: aborted.Msg})
		return
	}
	c.met.ItemsMoved.Add(int64(len(req.Items)))
	rep := acquireDeliverReply()
	rep.Credits = credits
	inv.Reply(rep)
}

// deliverReplyPool recycles successful Deliver replies.  The server
// acquires one per delivery (replies now carry per-delivery Credits so
// a shared immutable record no longer works); the client releases it
// after reading Status and Credits.  Replies that cross a
// gob-encoding node boundary fall to the GC — the pool is best-effort.
var deliverReplyPool = sync.Pool{New: func() any { return new(DeliverReply) }}

// acquireDeliverReply takes a recycled (or fresh) OK reply.
func acquireDeliverReply() *DeliverReply {
	rep := deliverReplyPool.Get().(*DeliverReply)
	rep.Status = StatusOK
	rep.AbortMsg = ""
	rep.Credits = 0
	return rep
}

// releaseDeliverReply recycles a reply the client has absorbed.
func releaseDeliverReply(rep *DeliverReply) {
	deliverReplyPool.Put(rep)
}

// Serve dispatches the transput operations a WOInPort understands,
// returning false for non-transput ops.
func (p *WOInPort) Serve(inv *kernel.Invocation) bool {
	switch inv.Op {
	case OpDeliver:
		p.ServeDeliver(inv)
	case OpChannels:
		inv.Reply(&ChannelsReply{Channels: p.Adverts()})
	case OpAbort:
		p.ServeAbort(inv)
	default:
		return false
	}
	return true
}

// DeliversServed reports total Deliver invocations accepted.
func (p *WOInPort) DeliversServed() int64 {
	return p.sum(func(s *streamBuf) int64 { return s.served })
}

// ChannelReader is the owning Eject's local consumer for one
// passive-input channel: §5's "conventional Read routine ...
// extracting data from an internal buffer".  It implements ItemReader.
// The reader is bound to one incarnation of the channel record; after
// Retire, Next reports io.EOF and Cancel is a no-op.
type ChannelReader struct {
	ch  *inBuf
	gen uint64
}

// ID returns the channel's identifier.
func (r *ChannelReader) ID() ChannelID { return r.ch.id }

// Next returns the next delivered item, or io.EOF once every expected
// writer has sent End and the buffer has drained.
func (r *ChannelReader) Next() ([]byte, error) {
	ch := r.ch
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.gen.Load() != r.gen {
		return nil, io.EOF
	}
	ch.waitItems()
	switch {
	case ch.buffered() > 0:
		var item [1][]byte
		ch.take(item[:])
		return item[0], nil
	case ch.abortErr != nil:
		return nil, ch.abortErr
	}
	return nil, io.EOF
}

// Cancel aborts the channel locally (consumer going away), releasing
// parked Deliver workers with StatusAborted.  The undrained backlog is
// dropped — nothing will ever read it — releasing any slab views.
func (r *ChannelReader) Cancel(msg string) {
	r.ch.abort(&AbortedError{Msg: msg}, r.gen, false)
}

var _ ItemReader = (*ChannelReader)(nil)

// Pusher is the active-output client: it issues Deliver invocations
// against a target Eject's input channel.  It implements ItemWriter.
// One Eject may hold many Pushers — that is the write-only
// discipline's arbitrary fan-out (Figure 3).
//
// Window is the number of Deliver invocations kept outstanding.  An
// Eden invocation does not suspend its sender (§1), so the paper's
// stop-and-wait is this same engine at Window 1: each Deliver is sent
// asynchronously, the uncollected calls wait in issue order, and the
// pusher collects the oldest whenever the window is full.  When Put or
// Flush returns, at most Window-1 deliveries are unacknowledged — none
// at Window 1, where blocking on each reply is the back pressure.
//
// Order is kept by the protocol: every delivery carries the pusher's
// Writer UID and a sequence number, and the sink holds a delivery
// until its Seq is the writer's next.  Calls are issued in sequence
// order and collected in the same order, so the oldest outstanding
// delivery has no uncollected predecessor and the sink's sequence gate
// never holds it.
//
// Flow control is credit-based: each DeliverReply reports how many
// more items the sink could buffer (Credits), and the pusher shrinks
// its window when credits run low so it does not park sink workers on
// a full buffer.  At least one delivery is always allowed, which is
// how the window re-learns the credit level.
type Pusher struct {
	k       *kernel.Kernel
	met     *metrics.Set
	caller  *kernel.Caller
	target  uid.UID
	channel ChannelID
	writer  uid.UID
	batch   int
	window  int
	// ctrl, when non-nil, sizes batches adaptively (AIMD) instead of
	// the fixed batch.
	ctrl *batchController

	mu      sync.Mutex
	pending [][]byte
	seq     uint64
	closed  bool
	err     error // first delivery failure, sticky

	// out is a ring of window delivery records; the outstanding ones
	// are out[head], out[head+1], ... (mod window), oldest first.
	// limit is the credit-adjusted window, 1..window.
	out    []delivery
	head   int
	active int
	limit  int

	deliversIssued int64
}

// delivery is one Deliver invocation: its request record (whose Items
// backing array is reused once the reply is collected), the
// outstanding call, and the adaptive controller's feedback.
type delivery struct {
	req   DeliverRequest
	call  *kernel.Call
	asked int
	start time.Time
}

// PusherConfig parameterises a Pusher.
type PusherConfig struct {
	// Batch is the number of items per Deliver; <=0 means 1 (the
	// paper-faithful count of one datum per invocation).
	Batch int
	// Window is the number of Deliver invocations kept outstanding,
	// clamped to [1, MaxWindow]; 1 is stop-and-wait.
	Window int
	// BatchMax > 0 makes the batch size adaptive within
	// [max(1, BatchMin), BatchMax], overriding Batch (see InPortConfig).
	BatchMin int
	BatchMax int
}

// NewPusher creates an active-output port pushing to target's channel.
func NewPusher(k *kernel.Kernel, self, target uid.UID, channel ChannelID, cfg PusherConfig) *Pusher {
	if k == nil {
		panic("transput: NewPusher requires a kernel")
	}
	w := &Pusher{
		k:       k,
		met:     k.Metrics(),
		caller:  k.Caller(self),
		target:  target,
		channel: channel,
		writer:  k.NewUID(),
		batch:   max(cfg.Batch, 1),
		window:  min(max(cfg.Window, 1), MaxWindow),
	}
	w.limit = w.window
	w.out = make([]delivery, w.window)
	if cfg.BatchMax > 0 {
		w.ctrl = newBatchController(cfg.BatchMin, cfg.BatchMax, &w.met.BatchSizeHighWater)
	}
	return w
}

// Target returns the UID this pusher delivers to.
func (w *Pusher) Target() uid.UID { return w.target }

// Channel returns the channel identifier this pusher delivers on.
func (w *Pusher) Channel() ChannelID { return w.channel }

// threshold returns the batch size currently in force.
func (w *Pusher) threshold() int {
	if w.ctrl != nil {
		return w.ctrl.next()
	}
	return w.batch
}

// sendLocked issues the pending items (and optionally End) as the next
// Deliver, then collects replies, oldest first, until fewer than limit
// are outstanding — the window gate.  asked is the batch size the
// producer was filling toward (the adaptive controller's feedback).
// Caller holds w.mu; blocking here is the protocol's back pressure.
func (w *Pusher) sendLocked(end bool, asked int) {
	d := &w.out[(w.head+w.active)%w.window]
	d.req.Items, w.pending = w.pending, d.req.Items
	d.req.Channel = w.channel
	d.req.Writer = w.writer
	d.req.Seq = w.seq
	d.req.End = end
	d.asked = asked
	if w.ctrl != nil {
		d.start = time.Now()
	}
	w.seq++
	w.deliversIssued++
	w.active++
	w.met.WindowDepthHighWater.Observe(int64(w.active))
	d.call = w.caller.Send(w.target, OpDeliver, &d.req)
	for w.active >= w.limit {
		w.collectLocked()
	}
}

// collectLocked waits for the oldest outstanding Deliver and applies
// its reply: a failure becomes the sticky error, a success's Credits
// set the limit.  Caller holds w.mu.
func (w *Pusher) collectLocked() {
	d := &w.out[w.head]
	w.head = (w.head + 1) % w.window
	w.active--
	raw, err := d.call.Collect()
	d.call = nil
	if err != nil {
		// The invocation never reached the sink; the batch dies here.
		// (On a non-OK reply the sink owns the cleanup of whatever it
		// did not absorb.)
		wire.ReleaseAll(d.req.Items)
	} else if rep, ok := raw.(*DeliverReply); !ok {
		err = fmt.Errorf("transput: bad Deliver reply type %T", raw)
	} else if rep.Status != StatusOK {
		err = statusErr(rep.Status, rep.AbortMsg) // copies the message
	} else {
		if w.ctrl != nil && len(d.req.Items) > 0 {
			w.ctrl.record(d.asked, len(d.req.Items), time.Since(d.start))
		}
		// Credit rule: leave the sink at least one batch of slack per
		// outstanding delivery; never stall completely, so the next
		// reply can raise the limit again.
		lim := 1 + rep.Credits/w.threshold()
		if lim > w.window {
			lim = w.window
		}
		w.limit = lim
		releaseDeliverReply(rep)
	}
	// The sink has absorbed the item references (or, across an encoded
	// node hop, decoded copies superseded them); keep only the backing
	// array for a later batch.
	clear(d.req.Items)
	d.req.Items = d.req.Items[:0]
	if err != nil && w.err == nil {
		w.err = err
	}
}

// drainLocked collects every outstanding Deliver.  Caller holds w.mu.
func (w *Pusher) drainLocked() {
	for w.active > 0 {
		w.collectLocked()
	}
}

// Put queues one item, delivering when a full batch accumulates.  The
// item is copied.  A delivery failure is reported by this or a later
// Put.
func (w *Pusher) Put(item []byte) error { return w.put(item, false) }

// PutOwned queues the item slice itself, taking ownership (see
// OwnedItemWriter).
func (w *Pusher) PutOwned(item []byte) error { return w.put(item, true) }

func (w *Pusher) put(item []byte, owned bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.err
	if w.closed {
		err = ErrClosed
	}
	if err != nil {
		if owned {
			wire.Release(item)
		}
		return err
	}
	if owned {
		w.met.WireBytesSaved.Add(int64(len(item)))
		w.pending = append(w.pending, item)
	} else {
		w.pending = append(w.pending, append([]byte(nil), item...))
	}
	if t := w.threshold(); len(w.pending) >= t {
		w.sendLocked(false, t)
	}
	return w.err
}

// Flush forces out any partial batch.
func (w *Pusher) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err == nil && len(w.pending) > 0 {
		w.sendLocked(false, w.threshold())
	}
	return w.err
}

// Close sends this writer's final delivery (any partial batch plus the
// End mark), collects every outstanding reply, and reports the first
// delivery failure, if any.
func (w *Pusher) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err == nil {
		w.sendLocked(true, w.threshold())
	}
	w.drainLocked()
	return w.err
}

// CloseWithError aborts the target channel.  The Abort is sent before
// the outstanding deliveries are collected: it releases any of them
// parked at a stalled sink.
func (w *Pusher) CloseWithError(err error) error {
	if err == nil {
		return w.Close()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	wire.ReleaseAll(w.pending) // the abort drops the partial batch
	w.pending = nil
	_, aerr := w.caller.Invoke(w.target, OpAbort, &AbortRequest{Channel: w.channel, Msg: err.Error()})
	w.drainLocked()
	return aerr
}

// DeliversIssued reports how many Deliver invocations this pusher has
// sent.
func (w *Pusher) DeliversIssued() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.deliversIssued
}

var _ ItemWriter = (*Pusher)(nil)

// MultiWriter duplicates every item to all of ws; Close/CloseWithError
// fan out likewise.  It is the simplest fan-out device for disciplines
// that permit it.
type MultiWriter struct {
	ws []ItemWriter
}

// NewMultiWriter returns an ItemWriter that duplicates to all ws.
func NewMultiWriter(ws ...ItemWriter) *MultiWriter { return &MultiWriter{ws: ws} }

// Put fans the item out to every writer, stopping at the first error.
func (m *MultiWriter) Put(item []byte) error {
	for _, w := range m.ws {
		if err := w.Put(item); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every writer, returning the first error.
func (m *MultiWriter) Close() error {
	var first error
	for _, w := range m.ws {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CloseWithError aborts every writer, returning the first error.
func (m *MultiWriter) CloseWithError(err error) error {
	var first error
	for _, w := range m.ws {
		if e := w.CloseWithError(err); e != nil && first == nil {
			first = e
		}
	}
	return first
}

var _ ItemWriter = (*MultiWriter)(nil)
