//transput:discipline readonly

package transput

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// InPort is the active-input half of the read-only discipline: it
// issues Transfer invocations against a source Eject's channel and
// hands the resulting items to the application through the
// conventional-looking Next (Read) interface.
//
// Three knobs correspond to the paper's ablations:
//
//   - Batch is the Max parameter on each Transfer (how many items one
//     invocation may return).  Batch 1 reproduces the paper's
//     one-datum-per-invocation accounting.
//
//   - Window is the number of Transfer invocations in flight.  At 1
//     (the default) the port is the paper's stop-and-wait reader.
//
//   - Prefetch is read-ahead beyond the window, in batches.  At
//     Window 1 and Prefetch 0 the port is demand-driven (lazy): a
//     Transfer is issued, on the consumer's goroutine, only when the
//     consumer actually needs data.  Otherwise Window background
//     pullers (goroutines — the Eject's "worker processes") pull ahead
//     of the consumer into a local buffer.
//
// Every result passes through one absorb step that places it by
// TransferReply.Base (the server-stamped stream offset), so the
// consumer observes exactly the sequential stream even with K
// Transfers in flight.  Base offsets are dense only for a channel's
// sole consumer, so a Window>1 port must be that; at Window 1 each
// result is next by construction and the port relies on Base only
// relative to the result itself.
type InPort struct {
	k       *kernel.Kernel
	met     *metrics.Set
	caller  *kernel.Caller
	self    uid.UID
	source  uid.UID
	channel ChannelID
	batch   int
	pref    int
	window  int
	// ctrl, when non-nil, makes Transfer Max adaptive: the AIMD
	// controller sizes every request between the configured bounds.
	ctrl *batchController

	// req is the port's reusable Transfer request record for inline
	// pulls; background pullers carry their own records.
	req TransferRequest

	mu        sync.Mutex
	pending   [][]byte
	done      bool
	err       error // nil for normal EOF
	cancelled bool

	// background pull machinery (window > 1 or pref > 0)
	ahead    chan pulled
	pullerOn bool
	stopPull chan struct{}
	pullerWG sync.WaitGroup

	// stream-order state, guarded by mu.
	nextBase  int64            // stream offset the consumer expects next; -1 until anchored
	streamLen int64            // total stream length once an End is seen; -1 before
	reorder   map[int64]pulled // early results keyed by Base; made on first use

	inflight        atomic.Int64 // Transfers currently on the wire (pullers)
	transfersIssued atomic.Int64
	itemsIn         atomic.Int64
}

// pulled is one Transfer's worth of results moving from the puller
// goroutine to the consumer.  rep, when set, is the reply record the
// items alias; it is recycled once the items have been absorbed.
type pulled struct {
	items  [][]byte
	status Status
	err    error
	rep    *TransferReply
	base   int64         // stream offset of items[0] (TransferReply.Base)
	slot   chan struct{} // read-ahead slot the result holds; nil for inline pulls
}

// freeSlot hands the result's read-ahead slot back to the pullers.
func (res pulled) freeSlot() {
	if res.slot != nil {
		res.slot <- struct{}{}
	}
}

// releasePulled discards a pulled batch nobody will consume: any slab
// views among its items are released and the reply record recycled.
func releasePulled(res pulled) {
	wire.ReleaseAll(res.items)
	if res.rep != nil {
		releaseTransferReply(res.rep)
	}
	res.freeSlot()
}

// MaxWindow caps the flow-control window so that parked stream
// invocations can never exhaust an Eject's kernel worker pool (32 by
// default): a windowed port holds at most MaxWindow workers blocked at
// the passive side.
const MaxWindow = 16

// InPortConfig parameterises an InPort.
type InPortConfig struct {
	// Batch is Max per Transfer; <=0 means 1.
	Batch int
	// Prefetch is the read-ahead beyond Window, in batches; with
	// Window <= 1, Prefetch <= 0 means demand-driven.
	Prefetch int
	// Window is the number of Transfer invocations kept in flight,
	// clamped to [1, MaxWindow]; 1 is stop-and-wait.  Window>1 implies
	// anticipation: the port pulls ahead of the consumer by up to
	// Window+Prefetch batches.
	Window int
	// BatchMax > 0 makes the port's batch size adaptive: an AIMD
	// controller tunes Transfer Max within [max(1, BatchMin),
	// BatchMax], overriding Batch.  BatchMin == BatchMax pins the size
	// and reproduces the fixed-batch invocation counts exactly.
	BatchMin int
	BatchMax int
}

// NewInPort creates an active-input port.  self identifies the
// invoking Eject (uid.Nil for external drivers such as device pumps
// or tests); source and channel name the stream to pull from — exactly
// the two facts §4 says a filter must be initialised with ("one of
// them is the Unique Identifier of the Eject from which it is to
// obtain its input", plus the channel identifier of §5).
func NewInPort(k *kernel.Kernel, self, source uid.UID, channel ChannelID, cfg InPortConfig) *InPort {
	if k == nil {
		panic("transput: NewInPort requires a kernel")
	}
	batch := max(cfg.Batch, 1)
	p := &InPort{
		k:         k,
		met:       k.Metrics(),
		caller:    k.Caller(self),
		self:      self,
		source:    source,
		channel:   channel,
		batch:     batch,
		pref:      max(cfg.Prefetch, 0),
		window:    min(max(cfg.Window, 1), MaxWindow),
		req:       TransferRequest{Channel: channel, Max: batch},
		nextBase:  -1,
		streamLen: -1,
	}
	if cfg.BatchMax > 0 {
		p.ctrl = newBatchController(cfg.BatchMin, cfg.BatchMax, &p.met.BatchSizeHighWater)
	}
	return p
}

// Source returns the UID this port pulls from.
func (p *InPort) Source() uid.UID { return p.source }

// Channel returns the channel identifier this port reads.
func (p *InPort) Channel() ChannelID { return p.channel }

// transfer issues one synchronous Transfer and normalises the result.
func (p *InPort) transfer() pulled { return p.transferWith(&p.req) }

// transferWith issues one synchronous Transfer using the given request
// record.  Pullers each own a record, because several Transfers may be
// on the wire at once.
func (p *InPort) transferWith(req *TransferRequest) pulled {
	asked := req.Max
	var start time.Time
	if p.ctrl != nil {
		asked = p.ctrl.next()
		req.Max = asked
		start = time.Now()
	}
	p.transfersIssued.Add(1)
	raw, err := p.caller.Invoke(p.source, OpTransfer, req)
	if err != nil {
		return pulled{err: err}
	}
	rep, ok := raw.(*TransferReply)
	if !ok {
		return pulled{err: fmt.Errorf("transput: bad Transfer reply type %T", raw)}
	}
	switch rep.Status {
	case StatusOK, StatusEnd:
		if p.ctrl != nil {
			p.ctrl.record(asked, len(rep.Items), time.Since(start))
		}
		return pulled{items: rep.Items, status: rep.Status, rep: rep, base: rep.Base}
	default:
		// statusErr copies what it needs; the record can recycle now.
		err := statusErr(rep.Status, rep.AbortMsg)
		releaseTransferReply(rep)
		return pulled{err: err}
	}
}

// startPullersLocked arms read-ahead: p.window puller goroutines, each
// keeping one Transfer on the wire, all feeding one bounded ahead
// channel.  The channel's capacity covers the worst-case tail (every
// puller delivering its final End result after the consumer has
// stopped reading), so pullers never leak.  Caller holds p.mu and has
// already anchored the stream (p.nextBase >= 0).
func (p *InPort) startPullersLocked() {
	// The goroutines work on local copies of the channels: Redirect
	// nils p.ahead (under p.mu) while the pullers are still draining,
	// so reading the fields from the closures would race.
	ahead := make(chan pulled, p.window+p.pref)
	// slots bounds the read-ahead at what the window and ahead channel
	// hold together: a puller takes a slot per Transfer and the
	// consumer hands it back once the result is absorbed in order.
	// Without it, one result delayed in flight lets the other pullers
	// run arbitrarily far ahead into the reorder stash.
	slots := make(chan struct{}, 2*p.window+p.pref)
	for range cap(slots) {
		slots <- struct{}{}
	}
	stop := make(chan struct{})
	p.ahead = ahead
	p.stopPull = stop
	p.pullerOn = true
	var wg sync.WaitGroup
	for i := 0; i < p.window; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := TransferRequest{Channel: p.channel, Max: p.batch}
			for {
				select {
				case <-stop:
					return
				case <-slots:
				}
				depth := p.inflight.Add(1)
				p.met.WindowDepthHighWater.Observe(depth)
				res := p.transferWith(&req)
				res.slot = slots
				p.inflight.Add(-1)
				select {
				case ahead <- res:
				case <-stop:
					releasePulled(res)
					return
				}
				if res.err != nil || res.status == StatusEnd {
					return
				}
			}
		}()
	}
	// A single closer waits for every puller, then closes ahead so a
	// consumer blocked mid-stream (after Cancel) wakes up.  pullerWG
	// tracks the closer, so Cancel/Redirect wait for the whole window.
	p.pullerWG.Add(1)
	go func() {
		defer p.pullerWG.Done()
		wg.Wait()
		close(ahead)
	}()
}

// absorbLocked integrates one Transfer result in stream order: a
// result whose Base is ahead of the consumer is stashed, and the
// contiguous prefix moves to pending.  With one Transfer outstanding
// (Window 1) every result is next by construction, so it re-anchors
// the expected offset rather than trusting Base to be dense.  Caller
// holds p.mu.
func (p *InPort) absorbLocked(res pulled) {
	if res.err != nil {
		p.done = true
		p.err = res.err
		p.releaseReorderLocked()
		return
	}
	if p.window == 1 || p.nextBase < 0 {
		p.nextBase = res.base
	}
	if res.status == StatusEnd {
		if end := res.base + int64(len(res.items)); p.streamLen < 0 || end > p.streamLen {
			p.streamLen = end
		}
	}
	if res.base != p.nextBase {
		// Duplicate bases can only be empty End replies (several
		// pullers observing the end of the drained stream); keep one.
		if old, ok := p.reorder[res.base]; ok {
			releasePulled(old)
		}
		if p.reorder == nil {
			p.reorder = make(map[int64]pulled)
		}
		p.reorder[res.base] = res
		p.met.MergeReorderHighWater.Observe(int64(len(p.reorder)))
		return
	}
	for {
		p.pending = append(p.pending, res.items...)
		if res.rep != nil {
			releaseTransferReply(res.rep)
		}
		res.freeSlot()
		if len(res.items) == 0 {
			break // empty End reply: the offset does not advance
		}
		p.nextBase += int64(len(res.items))
		next, ok := p.reorder[p.nextBase]
		if !ok {
			break
		}
		delete(p.reorder, p.nextBase)
		res = next
	}
	if p.streamLen >= 0 && p.nextBase >= p.streamLen {
		p.done = true
		p.releaseReorderLocked() // empty End stragglers, if any
	}
}

// releaseReorderLocked recycles and discards every stashed batch.
// Caller holds p.mu.
func (p *InPort) releaseReorderLocked() {
	for base, res := range p.reorder {
		releasePulled(res)
		delete(p.reorder, base)
	}
}

// Next returns the next item, or (nil, io.EOF) at end of stream.
// It implements ItemReader.
func (p *InPort) Next() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if len(p.pending) > 0 {
			item := p.pending[0]
			p.pending[0] = nil
			p.pending = p.pending[1:]
			p.itemsIn.Add(1)
			return item, nil
		}
		if p.done {
			if p.err != nil {
				return nil, p.err
			}
			return nil, io.EOF
		}
		var res pulled
		if p.nextBase < 0 || p.window == 1 && p.pref == 0 {
			// Inline pull on the consumer goroutine, issued without
			// holding the lock so Cancel can proceed: demand-driven
			// reading, and the probe that anchors a read-ahead port's
			// stream offset before concurrent pulls begin.
			p.mu.Unlock()
			res = p.transfer()
			p.mu.Lock()
		} else {
			if !p.pullerOn {
				p.startPullersLocked()
			}
			ahead := p.ahead
			p.mu.Unlock()
			var ok bool
			res, ok = <-ahead
			p.mu.Lock()
			if !ok {
				// The pullers exited without a final status (cancelled).
				p.done = true
				continue
			}
		}
		if p.done && p.err != nil {
			releasePulled(res)
			continue // cancelled while waiting
		}
		p.absorbLocked(res)
	}
}

// Cancel abandons the stream early and tells the source to abort the
// channel, so an upstream producer blocked on a full buffer does not
// wait forever.  Filters with early exit (head, grep -m) need this.
// Cancel is idempotent; after it, Next returns an AbortedError.
func (p *InPort) Cancel(msg string) {
	p.mu.Lock()
	if p.cancelled {
		p.mu.Unlock()
		return
	}
	p.cancelled = true
	if p.done {
		// The stream already ended normally (or failed); there is
		// nothing upstream to release, and sending an Abort would
		// pollute the invocation counts the experiments measure.
		ahead := p.ahead
		p.mu.Unlock()
		p.pullerWG.Wait()
		p.drainAhead(ahead)
		return
	}
	p.done = true
	if p.err == nil {
		p.err = &AbortedError{Msg: msg}
	}
	wire.ReleaseAll(p.pending) // undelivered items die with the stream
	p.pending = nil
	p.releaseReorderLocked()
	ahead := p.ahead
	if p.pullerOn {
		close(p.stopPull)
	}
	p.mu.Unlock()
	// The abort wakes any Transfer worker parked on the channel
	// (including our own in-flight pull).
	if _, err := p.caller.Invoke(p.source, OpAbort, &AbortRequest{Channel: p.channel, Msg: msg}); err != nil {
		// Undelivered (a shutting-down kernel refuses it): a parked pull
		// is released only when the source itself is torn down, which
		// may be queued behind this very Cancel, so the pullers are
		// reaped in the background.
		go p.reapPullers(ahead)
		return
	}
	p.reapPullers(ahead)
}

// reapPullers waits for the pullers to exit and drains what they left.
func (p *InPort) reapPullers(ahead chan pulled) {
	p.pullerWG.Wait()
	p.drainAhead(ahead)
}

// drainAhead releases results the pullers parked in the read-ahead
// buffer after the consumer stopped taking them.  Unlike Redirect
// (which salvages arrived data for the new stream), a cancelled port
// has no further consumer, so everything still buffered dies here.
// The channel is closed once pullerWG settles, so the drain ends.
func (p *InPort) drainAhead(ahead chan pulled) {
	if ahead == nil {
		return
	}
	for res := range ahead {
		releasePulled(res)
	}
}

// TransfersIssued reports how many Transfer invocations this port has
// sent; the E1–E4 experiments derive invocations-per-datum from it.
func (p *InPort) TransfersIssued() int64 { return p.transfersIssued.Load() }

// ItemsRead reports how many items the consumer has taken.
func (p *InPort) ItemsRead() int64 { return p.itemsIn.Load() }

var _ ItemReader = (*InPort)(nil)
