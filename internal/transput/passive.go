package transput

import (
	"sync"
	"unsafe"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// This file is the passive endpoint both disciplines share.  §5 calls
// write-only transput "the exact dual" of read-only, and the code takes
// that literally: passive output (OutPort, answering Transfer) and
// passive input (WOInPort, answering Deliver) are one bounded,
// generation-checked, abortable stream buffer run in opposite
// directions, and §3's passive buffer Eject (PassiveBuffer) is one such
// buffer answering both.  What differs per direction — which
// invocation fills or drains the buffer, and the local Put or Next on
// the other end — lives in the discipline-tagged files; the buffer, its
// pop, its absorb, its abort and the channel registry live here.

// streamBuf is one passive stream buffer, and the whole record of an
// OutPort channel.  The buffer is a head-indexed deque: the filling
// side appends at the tail, the draining side pops from head (take),
// and the backing array is compacted only when the dead prefix reaches
// half the slice — amortized O(1) per item, where compact-on-every-pop
// was O(capacity) per Transfer at batch 1.
//
// Records are pooled: Retire returns them (backing array included) for
// the next Declare, so channel churn does not allocate in steady
// state.  The embedded chanCore's generation makes every stale
// reference — table entry, capability cache entry, application handle
// — detectably dead (see chantable.go).
type streamBuf struct {
	chanCore

	met      *metrics.Set
	name     string
	id       ChannelID
	capacity int
	slot     int // index in the port's chans slice; guarded by port mu

	buf  [][]byte
	head int
	// ends counts End marks; the stream is complete once it reaches
	// expectedEnds, the writer count (1 on an OutPort channel, whose
	// ChannelWriter.Close is the End).  int32 keeps the output record
	// in its 224-byte size class.
	ends, expectedEnds int32
	abortErr           *AbortedError

	served int64 // Transfers (output) or Deliveries (input) answered
	taken  int64 // items popped so far: the stream offset of the next pop
}

// inBuf is the passive-input record (WOInPort channels, PassiveBuffer):
// a streamBuf plus the writer-sequence gate.  A Deliver carrying a
// Writer UID (every Pusher's does) is held until its Seq is the
// writer's next expected one, so a window of K in-flight Delivers
// cannot reorder the stream.  A bare Deliver with a nil Writer bypasses
// the gate.
type inBuf struct {
	streamBuf
	seq seqGate
}

// Pools of retired records.  A pooled record keeps its cond and its
// buffer backing array; everything stream-specific is re-initialised by
// reset.
var (
	outBufPool = sync.Pool{New: func() any { return new(streamBuf) }}
	inBufPool  = sync.Pool{New: func() any { return new(inBuf) }}
)

// core returns the stream buffer a record is built on.
func (s *streamBuf) core() *streamBuf { return s }

// gate returns the record's writer-sequence gate: none for passive
// output, whose one writer is local.
func (s *streamBuf) gate() *seqGate { return nil }

func (c *inBuf) gate() *seqGate { return &c.seq }

// buffered is the live item count.  Caller holds mu.
func (s *streamBuf) buffered() int { return len(s.buf) - s.head }

// ended reports whether every expected End has arrived.  Caller holds
// mu.
func (s *streamBuf) ended() bool { return s.ends >= s.expectedEnds }

// reset re-initialises a pooled (or fresh) record for a new stream with
// at least one writer.  It runs under mu: a goroutine holding a stale
// reference from the record's previous life may lock and run its
// generation check concurrently.
func (s *streamBuf) reset(met *metrics.Set, name string, id ChannelID, capacity, writers int, gate *seqGate) {
	s.mu.Lock()
	if s.cond == nil {
		s.cond = sync.NewCond(&s.mu)
	}
	s.met = met
	s.name = name
	s.id = id
	s.capacity = capacity
	s.buf = s.buf[:0]
	s.head = 0
	s.ends, s.expectedEnds = 0, int32(max(writers, 1))
	s.abortErr = nil
	s.served, s.taken = 0, 0
	if gate != nil {
		gate.reset()
	}
	s.mu.Unlock()
}

// capacityBound maps a configured capacity onto a buffer bound: 0
// selects DefaultCapacity, and a negative value selects least, the
// direction's smallest legal bound — 0 (rendezvous) for passive output,
// 1 for passive input, which could never accept anything at 0.
func capacityBound(capacity, least int) int {
	switch {
	case capacity < 0:
		return least
	case capacity == 0:
		return DefaultCapacity
	}
	return capacity
}

// waitItems parks the caller until an item is buffered, the stream has
// ended, or it is aborted.  Caller holds mu.
func (s *streamBuf) waitItems() {
	for s.buffered() == 0 && !s.ended() && s.abortErr == nil {
		s.wait()
	}
}

// take pops len(dst) items into dst and returns the stream offset of
// dst[0] — TransferReply.Base, by which windowed readers reassemble
// batches in order.  It wakes writers waiting for space.  Caller holds
// mu and len(dst) <= buffered().
func (s *streamBuf) take(dst [][]byte) int64 {
	n := copy(dst, s.buf[s.head:])
	clear(s.buf[s.head : s.head+n]) // let the GC reclaim consumed items
	s.head += n
	switch {
	case s.head == len(s.buf):
		s.buf = s.buf[:0]
		s.head = 0
	case s.head >= len(s.buf)-s.head:
		// The dead prefix has reached half the slice; slide the live
		// items down so the array stops growing.
		live := copy(s.buf, s.buf[s.head:])
		clear(s.buf[live:])
		s.buf = s.buf[:live]
		s.head = 0
	}
	base := s.taken
	s.taken += int64(n)
	s.cond.Broadcast()
	return base
}

// absorb takes one Deliver's items into the buffer and returns the
// Credits figure for its reply: how many more items the buffer could
// take.  Caller holds mu.  The delivery is first held until it is its
// writer's next in sequence (the parked kernel worker is the window's
// cost; MaxWindow keeps it below the pool size), then each item waits
// for space — withholding the reply is how back pressure reaches the
// writer.  On abort it releases the items it did not take (the sender
// cannot know how many were taken, so the server owns the cleanup) and
// returns the abort.
func (c *inBuf) absorb(req *DeliverRequest) (int, *AbortedError) {
	if !req.Writer.IsNil() {
		for c.seq.expected(req.Writer) != req.Seq && c.abortErr == nil {
			c.wait()
		}
	}
	// Absorb the item references themselves.  The writer side always
	// hands over fresh (or already-superseded) slices: Pusher copies on
	// Put unless given ownership, and a request decoded off an encoded
	// node hop is fresh by construction.  Skipping the copy here is the
	// write-only discipline's zero-copy path.
	absorbed := 0
	var saved int64
	for _, item := range req.Items {
		for c.buffered() >= c.capacity && c.abortErr == nil {
			c.wait()
		}
		if c.abortErr != nil {
			break
		}
		c.buf = append(c.buf, item)
		absorbed++
		saved += int64(len(item))
		c.cond.Broadcast()
	}
	c.met.WireBytesSaved.Add(saved)
	if c.abortErr != nil {
		wire.ReleaseAll(req.Items[absorbed:])
		return 0, c.abortErr
	}
	if req.End {
		c.ends++
	}
	if !req.Writer.IsNil() {
		if req.End {
			c.seq.drop(req.Writer)
		} else {
			c.seq.advance(req.Writer, req.Seq+1)
		}
	}
	c.cond.Broadcast()
	c.served++
	return max(c.capacity-c.buffered(), 0), nil
}

// abortLocked fails the stream with err (keeping an earlier failure)
// and wakes every waiter.  An aborted stream never serves its backlog,
// so the buffered items are unreachable: they are dropped here,
// releasing any slab views among them.  Caller holds mu.
func (s *streamBuf) abortLocked(err *AbortedError) {
	if s.abortErr == nil {
		s.abortErr = err
	}
	wire.ReleaseAll(s.buf[s.head:])
	clear(s.buf)
	s.buf = s.buf[:0]
	s.head = 0
	s.cond.Broadcast()
}

// abort fails the stream if it still carries gen (a retired record is
// already dead; aborting its successor through a stale reference would
// corrupt an unrelated stream).  keepEnded spares a stream that has
// already ended: an OutPort channel its writer closed is complete, and
// its backlog still drains to the reader.
func (s *streamBuf) abort(err *AbortedError, gen uint64, keepEnded bool) {
	s.mu.Lock()
	if s.gen.Load() == gen && !(keepEnded && s.ended()) {
		s.abortLocked(err)
	}
	s.mu.Unlock()
}

// passiveRecord is what the registry needs from a record type
// (*streamBuf for OutPort, *inBuf for WOInPort).
type passiveRecord interface {
	comparable
	genChecked
	core() *streamBuf
	gate() *seqGate
}

// passivePort is the channel registry both passive ports embed: the
// lookup table, the advert list, the record pool, and declare, retire
// and abort over them.
type passivePort[C passiveRecord] struct {
	met       *metrics.Set
	mintCap   func() uid.UID
	dir       string     // advert direction, "out" or "in"
	keepEnded bool       // aborts spare ended streams (passive output)
	pool      *sync.Pool // of C
	footprint int64      // IdleChannelBytes charge per channel

	// table resolves requests: striped amortised-COW maps with a
	// capability cache in front (see chantable.go).  Lookups on the
	// data path are lock-free; declare and retire are O(1) amortised,
	// which is what makes gateway-scale admission linear.
	table *chanTable[C]

	mu    sync.Mutex // guards chans (advert order and slot indices)
	chans []C
}

// tableEntryBytes approximates the amortised per-entry share of one
// lookup index (key, entry struct and map-bucket overhead).  Used only
// for the IdleChannelBytes accounting gauge; the gateway bench
// cross-checks the gauge against runtime.MemStats.
const tableEntryBytes = 64

// init sets up the registry.  k supplies UID minting (capability mode)
// and the metric set; it may be nil in unit tests, in which case
// capability mode mints from the global generator and metering is
// dropped on a private set.  recordBytes is the record's size: an idle
// channel is charged it plus its index entries (two indices and a
// cache entry in capability mode, one index otherwise).
func (p *passivePort[C]) init(k *kernel.Kernel, capMode bool, dir string, pool *sync.Pool, recordBytes uintptr) {
	p.met, p.mintCap = &metrics.Set{}, uid.New
	if k != nil {
		p.met, p.mintCap = k.Metrics(), k.NewUID
	}
	p.dir = dir
	p.keepEnded = dir == "out"
	p.pool = pool
	p.footprint = int64(recordBytes) + tableEntryBytes
	if capMode {
		p.footprint += tableEntryBytes + int64(unsafe.Sizeof(capEntry[C]{}))
	}
	p.table = newChanTable[C](capMode, p.met)
}

// declare takes a record from the pool, resets it for a new stream and
// publishes it.  In capability mode the channel's unforgeable
// identifier is minted here.  It returns the record and the generation
// the caller's handle is bound to.
func (p *passivePort[C]) declare(name string, num ChannelNum, capacity, writers int) (C, uint64) {
	id := ChannelID{Num: num}
	if p.table.capMode {
		id.Cap = p.mintCap()
	}
	ch := p.pool.Get().(C)
	s := ch.core()
	s.reset(p.met, name, id, capacity, writers, ch.gate())
	gen := s.generation()
	p.mu.Lock()
	s.slot = len(p.chans)
	p.chans = append(p.chans, ch)
	p.mu.Unlock()
	p.table.register(num, id.Cap, ch, gen)
	p.met.ChannelsLive.Inc()
	p.met.IdleChannelBytes.Add(p.footprint)
	return ch, gen
}

// errRetired marks channels torn down by Retire.  Shared: AbortedError
// is immutable once published.
var errRetired = &AbortedError{Msg: "channel retired"}

// retire tears down ch if it still carries gen: parked workers are
// released with StatusAborted, stale handles fail their generation
// checks, the backlog is dropped with its slab views released, and the
// record returns to the pool.  It reports whether this call performed
// the teardown.
func (p *passivePort[C]) retire(ch C, gen uint64) bool {
	s := ch.core()
	s.mu.Lock()
	if s.gen.Load() != gen {
		s.mu.Unlock()
		return false
	}
	num, cp := s.id.Num, s.id.Cap
	s.abortLocked(errRetired)
	s.gen.Add(1) // every outstanding reference is now stale
	s.mu.Unlock()

	p.table.unregister(num, cp)
	p.mu.Lock()
	last := len(p.chans) - 1
	if s.slot <= last && p.chans[s.slot] == ch {
		moved := p.chans[last]
		p.chans[s.slot] = moved
		moved.core().slot = s.slot
		var zero C
		p.chans[last] = zero
		p.chans = p.chans[:last]
	}
	p.mu.Unlock()
	p.met.ChannelsLive.Dec()
	p.met.IdleChannelBytes.Sub(p.footprint)

	// Pool the record only when no kernel worker is still parked in it;
	// a record with waiters is left to the GC (rare — the broadcast
	// above drains them promptly).
	s.mu.Lock()
	idle := s.waiters == 0
	s.mu.Unlock()
	if idle {
		p.pool.Put(ch)
	}
	return true
}

// lookup resolves a requested ChannelID under the port's addressing
// mode.  Lock-free on the steady-state path (capability cache hit or
// stripe snapshot hit).
func (p *passivePort[C]) lookup(id ChannelID) (C, uint64, Status) {
	return p.table.lookup(id)
}

func (p *passivePort[C]) snapshot() []C {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]C(nil), p.chans...)
}

// sum totals f over the live channels, each read under its own lock.
func (p *passivePort[C]) sum(f func(*streamBuf) int64) int64 {
	var n int64
	for _, ch := range p.snapshot() {
		s := ch.core()
		s.mu.Lock()
		n += f(s)
		s.mu.Unlock()
	}
	return n
}

// Adverts lists the port's channels for OpChannels.  In capability
// mode this is how a pipeline builder learns the channel UIDs; the
// security of the scheme "depends on the honesty of the Eject which
// performs the interconnections" (§5), i.e. of whoever calls this.
func (p *passivePort[C]) Adverts() []ChannelAdvert {
	p.mu.Lock()
	defer p.mu.Unlock()
	ads := make([]ChannelAdvert, 0, len(p.chans))
	for _, ch := range p.chans {
		s := ch.core()
		ads = append(ads, ChannelAdvert{Name: s.name, ID: s.id, Dir: p.dir})
	}
	return ads
}

// ServeAbort handles OpAbort: it aborts the named channel, or every
// channel.  Aborting a channel that does not exist is a no-op.
func (p *passivePort[C]) ServeAbort(inv *kernel.Invocation) {
	req, ok := inv.Payload.(*AbortRequest)
	if !ok {
		inv.Fail(kernel.ErrNoSuchOperation)
		return
	}
	err := &AbortedError{Msg: req.Msg}
	if req.All {
		for _, ch := range p.snapshot() {
			// If a retire races us the generation check turns the abort
			// into a no-op, which is the right outcome either way.
			s := ch.core()
			s.abort(err, s.generation(), p.keepEnded)
		}
	} else if ch, gen, st := p.lookup(req.Channel); st == StatusOK {
		ch.core().abort(err, gen, p.keepEnded)
	}
	inv.Reply(&AbortReply{})
}
