package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// The gateway-churn workload is E13's shape on one node, at E13's
// committed size (cmd/transput-bench, BENCH_gateway.json): a
// capability-mode WOInPort ingress and an OutPort egress carrying a
// large idle population, a hot set streaming Pusher -> pump -> InPort,
// and a churn loop retiring and re-declaring channels of the cold tail
// while the hot set streams.
const (
	gwPairs    = 100_000         // idle population, in channel pairs (2 channels each)
	gwHot      = 256             // pairs that stream
	gwChanCap  = 8               // per-channel buffer: the population, not depth, is the load
	gwBatch    = 16              // Pusher and InPort batch
	gwWarm     = gwHot * gwBatch // set-up ends once every hot pair could have carried a batch
	gwRingBits = 12
	gwRingMask = 1<<gwRingBits - 1
)

// gwPort adapts a passive port to a kernel Eject.
type gwPort struct {
	serve func(*kernel.Invocation) bool
	typ   string
}

func (g *gwPort) EdenType() string { return g.typ }

func (g *gwPort) Serve(inv *kernel.Invocation) {
	if !g.serve(inv) {
		inv.Fail(kernel.ErrNoSuchOperation)
	}
}

// gwStream is one hot pair's bookkeeping, shared by its producer and
// subscriber.
type gwStream struct {
	sent     atomic.Int64
	received atomic.Int64
	emitNs   []atomic.Int64 // send time by seq mod ring
	dig      *digest        // subscriber-owned
	lat      *latRecorder   // subscriber-owned
}

type gwInst struct {
	seed uint64
	k    *kernel.Kernel
	tr   *tracer
	ing  *transput.WOInPort
	eg   *transput.OutPort

	ingUID, egUID uid.UID
	readers       []*transput.ChannelReader
	writers       []*transput.ChannelWriter
	streams       []*gwStream

	born       time.Time
	setup      time.Duration // kernel creation to the end of warm-up
	setupSteal int64         // host steal during set-up, ms (-1 unknown)
	before     sample

	stop      atomic.Bool
	recording atomic.Bool
	lat       *windowed
	latStats  latencyStats
	received  atomic.Int64
	warmed    chan struct{}
	warmOnce  sync.Once
	wg        sync.WaitGroup
	errMu     sync.Mutex
	errs      []error

	churnStop  atomic.Bool
	churnDone  chan struct{}
	churnPairs atomic.Int64
	churnErr   error
	declareNs  int64 // churn-owned
	retireNs   int64
}

func (g *gwInst) addErr(err error) {
	g.errMu.Lock()
	g.errs = append(g.errs, err)
	g.errMu.Unlock()
}

// startGateway admits the population, starts the hot set and returns
// when the subscribers have received gwWarm items.
func startGateway(seed uint64, tr *tracer) (*gwInst, error) {
	g := &gwInst{seed: seed, tr: tr, warmed: make(chan struct{}), churnDone: make(chan struct{}), lat: newWindowed()}
	// Collect the previous instance's garbage first, so that set-up
	// time does not carry it.
	runtime.GC()
	steal0 := hostStealMs()
	g.born = time.Now()
	// Every hot subscriber can hold one Transfer and every hot producer
	// one Deliver parked at a port, so the worker pools must exceed the
	// hot set.
	g.k = kernel.New(kernel.Config{WorkersPerEject: gwHot + 8})
	g.before = takeSample(g.k)
	g.ing = transput.NewWOInPort(g.k, transput.WOInPortConfig{Capacity: gwChanCap, CapabilityMode: true})
	g.eg = transput.NewOutPort(g.k, transput.OutPortConfig{Capacity: gwChanCap, CapabilityMode: true})
	var err error
	if g.ingUID, err = g.k.Create(&gwPort{serve: g.ing.Serve, typ: "perfbench.ingress"}, 0); err != nil {
		g.k.Shutdown()
		return nil, fmt.Errorf("gateway ingress: %w", err)
	}
	if g.egUID, err = g.k.Create(&gwPort{serve: g.eg.Serve, typ: "perfbench.egress"}, 0); err != nil {
		g.k.Shutdown()
		return nil, fmt.Errorf("gateway egress: %w", err)
	}
	g.readers = make([]*transput.ChannelReader, gwPairs)
	g.writers = make([]*transput.ChannelWriter, gwPairs)
	for i := 0; i < gwPairs; i++ {
		g.readers[i] = g.ing.Declare("in", transput.ChannelNum(i), gwChanCap, 1)
		g.writers[i] = g.eg.Declare("out", transput.ChannelNum(i), gwChanCap)
	}
	g.streams = make([]*gwStream, gwHot)
	for j := range g.streams {
		g.streams[j] = &gwStream{emitNs: make([]atomic.Int64, 1<<gwRingBits), dig: newDigest(), lat: &latRecorder{into: g.lat}}
	}
	for j := 0; j < gwHot; j++ {
		g.wg.Add(2)
		go g.pump(j)
		go g.subscribe(j)
	}
	// One producer per spare CPU; the churn loop takes the last one.
	producers := runtime.GOMAXPROCS(0) - 1
	if producers < 1 {
		producers = 1
	}
	for p := 0; p < producers; p++ {
		var mine []int
		for j := p; j < gwHot; j += producers {
			mine = append(mine, j)
		}
		g.wg.Add(1)
		go g.produce(mine)
	}
	select {
	case <-g.warmed:
		g.setup = time.Since(g.born)
		g.setupSteal = stealSince(steal0)
	case <-time.After(60 * time.Second):
		return g, fmt.Errorf("gateway warm-up did not finish in 60s (%d items)", g.received.Load())
	}
	return g, nil
}

// produce pushes one batch at a time into each of its hot pairs in
// turn until stopped, then closes them.
func (g *gwInst) produce(pairs []int) {
	defer g.wg.Done()
	var st *stageTrace
	if g.tr != nil {
		st = g.tr.stage("src", 0)
	}
	pushers := make([]transput.ItemWriter, len(pairs))
	for x, j := range pairs {
		p := transput.NewPusher(g.k, uid.Nil, g.ingUID, g.readers[j].ID(), transput.PusherConfig{Batch: gwBatch})
		pushers[x] = traceWriter(p, st)
	}
	defer func() {
		for _, p := range pushers {
			if err := p.Close(); err != nil {
				g.addErr(fmt.Errorf("producer close: %w", err))
			}
		}
	}()
	for !g.stop.Load() {
		for x, j := range pairs {
			s := g.streams[j]
			for b := 0; b < gwBatch; b++ {
				seq := uint64(s.sent.Load())
				item := makeItem(g.seed, uint64(j), seq, paperSize(g.seed, seq), noStamp)
				s.emitNs[seq&gwRingMask].Store(nowNs())
				if err := transput.PutOwned(pushers[x], item); err != nil {
					g.addErr(fmt.Errorf("producer %d: %w", j, err))
					return
				}
				s.sent.Add(1)
			}
		}
	}
}

// pump is the gateway's own thread of control for one hot pair: it
// forwards the ingress stream to the egress channel with ownership
// handoff.
func (g *gwInst) pump(j int) {
	defer g.wg.Done()
	var r transput.ItemReader = g.readers[j]
	var w transput.ItemWriter = g.writers[j]
	if g.tr != nil {
		st := g.tr.stage("pump", uint64(j))
		r, w = traceReader(r, st), traceWriter(w, st)
	}
	for {
		item, err := r.Next()
		if err == io.EOF {
			if err := w.Close(); err != nil {
				g.addErr(fmt.Errorf("pump %d close: %w", j, err))
			}
			return
		}
		if err != nil {
			_ = w.CloseWithError(err) // the subscriber reports the abort
			g.addErr(fmt.Errorf("pump %d: %w", j, err))
			return
		}
		if err := transput.PutOwned(w, item); err != nil {
			g.addErr(fmt.Errorf("pump %d: %w", j, err))
			return
		}
	}
}

// subscribe is an external reader pulling one hot pair at the egress.
func (g *gwInst) subscribe(j int) {
	defer g.wg.Done()
	s := g.streams[j]
	var r transput.ItemReader = transput.NewInPort(g.k, uid.Nil, g.egUID, g.writers[j].ID(), transput.InPortConfig{Batch: gwBatch})
	if g.tr != nil {
		r = traceReader(r, g.tr.stage("sink", uint64(j)))
	}
	defer s.lat.flush()
	for {
		item, err := r.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			g.addErr(fmt.Errorf("subscriber %d: %w", j, err))
			return
		}
		now := nowNs()
		s.dig.add(item)
		if g.recording.Load() && len(item) >= headerBytes {
			s.lat.add(now, now-s.emitNs[itemID(item)&gwRingMask].Load())
		}
		s.received.Add(1)
		if g.received.Add(1) == gwWarm {
			g.warmOnce.Do(func() { close(g.warmed) })
		}
	}
}

// churn retires and re-declares channel pairs of the cold tail, in a
// seeded order, until stopped.
func (g *gwInst) churn() {
	defer close(g.churnDone)
	x := splitmix64(g.seed ^ 0xc4a2)
	span := uint64(gwPairs - gwHot)
	timeIt := g.tr != nil
	for !g.churnStop.Load() {
		x = splitmix64(x)
		i := gwHot + int(x%span)
		var t0, t1, t2, t3, t4 int64
		if timeIt {
			t0 = nowNs()
		}
		if !g.ing.Retire(g.readers[i]) {
			g.churnErr = fmt.Errorf("ingress retire %d failed", i)
			return
		}
		if timeIt {
			t1 = nowNs()
		}
		g.readers[i] = g.ing.Declare("in", transput.ChannelNum(i), gwChanCap, 1)
		if timeIt {
			t2 = nowNs()
		}
		if !g.eg.Retire(g.writers[i]) {
			g.churnErr = fmt.Errorf("egress retire %d failed", i)
			return
		}
		if timeIt {
			t3 = nowNs()
		}
		g.writers[i] = g.eg.Declare("out", transput.ChannelNum(i), gwChanCap)
		if timeIt {
			t4 = nowNs()
			g.retireNs += (t1 - t0) + (t3 - t2)
			g.declareNs += (t2 - t1) + (t4 - t3)
		}
		g.churnPairs.Add(2)
	}
}

type gwTimed struct {
	timed
	churnPairs int64
}

func (g *gwInst) runTimed(d time.Duration) gwTimed {
	var tm gwTimed
	c0 := g.churnPairs.Load()
	g.recording.Store(true)
	go g.churn()
	pts := samplePhase(g.k, d, g.received.Load)
	tm.churnPairs = g.churnPairs.Load() - c0
	g.recording.Store(false)
	tm.thru = reducePhase(pts)
	tm.eff = tm.thru
	tm.allItems, tm.all = tm.thru.items, tm.thru.total
	tm.latQuiet = tm.thru.quiet
	return tm
}

// finish stops the producers and the churn loop, drains the hot set,
// takes the live heap, checks the gates and shuts the kernel down.
func (g *gwInst) finish(r *result, tm *gwTimed) delta {
	g.stop.Store(true)
	g.churnStop.Store(true)
	werr := waitTimeout(func() error { g.wg.Wait(); return nil }, 60*time.Second)
	if tm != nil { // the churn loop runs in timed phases only
		<-g.churnDone
	}
	after := takeSample(g.k)
	// Reduce the latency samples, then drop the benchmark's own
	// buffers, so the live heap is the system's.
	var quiet map[int64]bool
	if tm != nil {
		quiet = tm.latQuiet
	}
	g.latStats = g.lat.summarize(int64(sloLimit), quiet)
	if werr == nil { // the subscribers have returned
		g.lat = nil
		for _, s := range g.streams {
			s.emitNs, s.lat = nil, nil
		}
	}
	if tm != nil {
		tm.heapMB = liveHeapMB()
	}
	life := between(g.before, after)
	live := g.k.Metrics().ChannelsLive.Value()
	g.k.Shutdown()
	leaked := g.k.Metrics().SlabLeaked.Value()

	if werr != nil {
		r.fail("gateway.run", werr)
	}
	if err := errors.Join(append(g.errs, g.churnErr)...); err != nil {
		r.fail("gateway.errors", err)
	}
	var sent, got int64
	okCount, okDigest := true, true
	for j, s := range g.streams {
		n := s.sent.Load()
		sent += n
		got += s.received.Load()
		if s.received.Load() != n {
			okCount = false
		}
		want := referenceDigest(g.seed, uint64(j), n, paperSize, func(int64) int64 { return noStamp }, nil)
		if s.dig.sum() != want || s.dig.n != n {
			okDigest = false
		}
	}
	r.check("gateway.count", okCount && got == sent, "subscribers received %d of %d items scheduled", got, sent)
	r.check("gateway.digest", okDigest, "per-pair sink digests match the reference for all %d hot pairs", gwHot)
	r.check("gateway.channels_live", live == 2*gwPairs, "channels_live=%d after churn, want %d", live, 2*gwPairs)
	r.check("gateway.slab_leaked", leaked == 0, "slab_leaked=%d after shutdown", leaked)
	r.attempted += sent
	if tm != nil {
		r.attempted += tm.churnPairs
	}
	return life
}
