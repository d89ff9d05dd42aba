package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/transput"
)

// Fixed parameters of the two pipeline workloads.  An open-loop item
// costs about four times the CPU of a saturated one (small batches,
// one wake-up each), so 10k items/s already keeps about a third of a
// 2-vCPU host busy: well below saturation, so latency is not
// queueing-dominated.
const (
	warmItems    = 1000
	openRate     = 10000 // items/s, wire-uds open-loop phase
	openShare    = 0.7   // of the timed length; the rest is saturation
	sloLimit     = 5 * time.Millisecond
	emitRingBits = 16
	emitRingMask = 1<<emitRingBits - 1
)

// pipeSpec describes one pipeline workload.
type pipeSpec struct {
	name      string
	fns       []stageFn
	size      sizeFunc
	transport transput.Transport
	nodes     int
	opt       transput.Options
	// open selects the open-loop phase followed by a saturation phase;
	// otherwise the source runs in a closed loop, as fast as the
	// pipeline pulls.
	open bool
	// paperCounts turns on the paper's exact gates: n+2 Ejects and n+1
	// invocations per item.
	paperCounts bool
}

var paperB1 = &pipeSpec{
	name:        "paper-b1",
	fns:         chainFns,
	size:        paperSize,
	transport:   transput.TransportNetsim,
	nodes:       1,
	opt:         transput.Options{Batch: 1, Window: 1, Fusion: transput.FusionOff},
	paperCounts: true,
}

var wireUDS = &pipeSpec{
	name:      "wire-uds",
	fns:       chainFns[:2],
	size:      wireSize,
	transport: transput.TransportUnix,
	nodes:     2,
	opt: transput.Options{
		BatchMin: 1, BatchMax: 64, Window: 4,
		Placement: crossNodePlacement(2),
	},
	open: true,
}

// crossNodePlacement alternates stages across nodes: source on 0,
// filter i on (i+1) mod nodes, sink on the last node — with two nodes
// every link of a two-filter chain crosses the wire.
func crossNodePlacement(nodes int) func(transput.Role, int) netsim.NodeID {
	return func(role transput.Role, index int) netsim.NodeID {
		switch role {
		case transput.RoleFilter, transput.RoleBuffer:
			return netsim.NodeID((index + 1) % nodes)
		case transput.RoleSink:
			return netsim.NodeID(nodes - 1)
		default:
			return 0
		}
	}
}

// pipeInst is one built pipeline and the state its source and sink
// share with the harness.
type pipeInst struct {
	spec *pipeSpec
	seed uint64
	k    *kernel.Kernel
	p    *transput.Pipeline
	tr   *tracer

	born       time.Time     // kernel creation
	setup      time.Duration // kernel creation to the end of warm-up
	setupSteal int64         // host steal during set-up, ms (-1 unknown)
	buildDur   time.Duration
	before     sample // just before BuildPipeline

	// Source side.
	stop     atomic.Bool
	openDur  time.Duration
	goOpen   chan struct{} // harness: start the schedule
	openSent chan struct{} // source: last scheduled item put
	sat      chan struct{} // harness: start saturating
	emitted  atomic.Int64
	nOpen    atomic.Int64
	openBase atomic.Int64
	emitNs   []atomic.Int64 // closed-loop send times, by id mod ring
	lag      hist

	// Sink side.
	received  atomic.Int64
	warmed    chan struct{}
	recording atomic.Bool
	dig       *digest
	lat       *windowed
	latRec    *latRecorder // sink-owned
	latStats  latencyStats
}

// startPipe creates the kernel, builds and starts the pipeline, and
// returns once the sink has seen warmItems items: the end of set-up.
func startPipe(spec *pipeSpec, seed uint64, tr *tracer, openDur time.Duration) (*pipeInst, error) {
	in := &pipeInst{
		spec: spec, seed: seed, tr: tr, openDur: openDur,
		goOpen: make(chan struct{}), openSent: make(chan struct{}), sat: make(chan struct{}),
		warmed: make(chan struct{}), dig: newDigest(), lat: newWindowed(),
		emitNs: make([]atomic.Int64, 1<<emitRingBits),
	}
	// Collect the previous instance's garbage first, so that set-up
	// time does not carry it.
	runtime.GC()
	in.latRec = &latRecorder{into: in.lat}
	steal0 := hostStealMs()
	in.born = time.Now()
	k, err := transput.NewTransportKernel(kernel.Config{Net: netsim.Config{Nodes: spec.nodes}}, spec.transport)
	if err != nil {
		return nil, fmt.Errorf("%s: kernel: %w", spec.name, err)
	}
	in.k = k
	fs := make([]transput.Filter, len(spec.fns))
	for i, fn := range spec.fns {
		name := fmt.Sprintf("f%d", i+1)
		fs[i] = transput.Filter{Name: name, Body: in.filter(name, fn)}
	}
	opt := spec.opt
	opt.Transport = spec.transport
	in.before = takeSample(k)
	t := time.Now()
	p, err := transput.BuildPipeline(k, transput.ReadOnly, in.source, fs, in.sink, opt)
	in.buildDur = time.Since(t)
	if err != nil {
		k.Shutdown()
		return nil, fmt.Errorf("%s: build: %w", spec.name, err)
	}
	in.p = p
	p.Start()
	select {
	case <-in.warmed:
		in.setup = time.Since(in.born)
		in.setupSteal = stealSince(steal0)
	case <-time.After(60 * time.Second):
		in.release()
		return in, fmt.Errorf("%s: warm-up did not finish in 60s (%d items)", spec.name, in.received.Load())
	}
	return in, nil
}

func (in *pipeInst) put(out transput.ItemWriter, i uint64, stamp int64) error {
	b := makeItem(in.seed, 0, i, in.spec.size(in.seed, i), stamp)
	if !in.spec.open {
		in.emitNs[i&emitRingMask].Store(nowNs())
	}
	return transput.PutOwned(out, b)
}

// source is the load generator.  Closed loop: put until told to stop.
// Open loop: warmItems in a closed loop, then every item of the seeded
// schedule at (or, when the source ran late or blocked, after) its
// due time, stamped with that due time; then saturate until stopped.
func (in *pipeInst) source(out transput.ItemWriter) error {
	if in.tr != nil {
		out = traceWriter(out, in.tr.stage("src", 0))
	}
	var i uint64
	defer func() { in.emitted.Store(int64(i)) }()
	if !in.spec.open {
		for ; !in.stop.Load(); i++ {
			if err := in.put(out, i, noStamp); err != nil {
				return err
			}
		}
		return nil
	}
	for ; i < warmItems; i++ {
		if err := in.put(out, i, noStamp); err != nil {
			return err
		}
	}
	<-in.goOpen
	base := nowNs()
	in.openBase.Store(base)
	s := newSchedule(in.seed, openRate)
	for off := s.next(); off < int64(in.openDur); off = s.next() {
		if wait := base + off - nowNs(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		in.lag.add(nowNs() - base - off)
		if err := in.put(out, i, off); err != nil {
			return err
		}
		i++
	}
	in.nOpen.Store(int64(i) - warmItems)
	close(in.openSent)
	<-in.sat
	for ; !in.stop.Load(); i++ {
		if err := in.put(out, i, noStamp); err != nil {
			return err
		}
	}
	return nil
}

// filter is one stage body: Next, apply fn in place, hand the item on.
func (in *pipeInst) filter(name string, fn stageFn) transput.Body {
	return func(ins []transput.ItemReader, outs []transput.ItemWriter) error {
		r, w := ins[0], outs[0]
		if in.tr != nil {
			st := in.tr.stage(name, 0)
			r, w = traceReader(r, st), traceWriter(w, st)
		}
		for {
			item, err := r.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			fn(item)
			if err := transput.PutOwned(w, item); err != nil {
				return err
			}
		}
	}
}

// sink digests every item and times it: open-loop items from their
// scheduled send time, closed-loop items (while recording) from when
// the source put them.
func (in *pipeInst) sink(r transput.ItemReader) error {
	if in.tr != nil {
		r = traceReader(r, in.tr.stage("sink", 0))
	}
	defer in.latRec.flush()
	for {
		item, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		now := nowNs()
		if len(item) < headerBytes {
			return fmt.Errorf("sink: %d-byte item", len(item))
		}
		in.dig.add(item)
		if st := itemStamp(item); st >= 0 {
			in.latRec.add(now, now-in.openBase.Load()-st)
		} else if in.recording.Load() {
			in.latRec.add(now, now-in.emitNs[itemID(item)&emitRingMask].Load())
		}
		if in.received.Add(1) == warmItems {
			close(in.warmed)
		}
	}
}

// release lets a source that is waiting on the harness run to its end.
func (in *pipeInst) release() {
	in.stop.Store(true)
	for _, c := range []chan struct{}{in.goOpen, in.sat} {
		select {
		case <-c:
		default:
			close(c)
		}
	}
}

// timed is what the harness measured in an instance's timed phase.
type timed struct {
	thru     phaseStats // throughput: the closed loop, or saturation
	eff      phaseStats // cpu and allocs per item: the closed loop, or the open loop
	allItems int64      // items that reached the sink in the whole timed phase
	all      delta      // the whole timed phase
	heapMB   float64
	latQuiet map[int64]bool // the quiet windows latency is taken over
}

// runTimed runs the timed phase for length d.
func (in *pipeInst) runTimed(d time.Duration) (timed, error) {
	var tm timed
	count := in.received.Load
	if !in.spec.open {
		in.recording.Store(true)
		pts := samplePhase(in.k, d, count)
		in.recording.Store(false)
		in.stop.Store(true)
		tm.thru = reducePhase(pts)
		tm.eff = tm.thru
		tm.allItems, tm.all = tm.thru.items, tm.thru.total
		tm.latQuiet = tm.thru.quiet
		return tm, nil
	}
	close(in.goOpen)
	open := samplePhase(in.k, in.openDur, count)
	select {
	case <-in.openSent:
	case <-time.After(60 * time.Second):
		return tm, errors.New("open-loop schedule did not finish")
	}
	want := warmItems + in.nOpen.Load()
	deadline := time.Now().Add(60 * time.Second)
	for in.received.Load() < want {
		if time.Now().After(deadline) {
			return tm, fmt.Errorf("sink stalled at %d of %d items", in.received.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(in.sat)
	sat := samplePhase(in.k, d-in.openDur, count)
	in.stop.Store(true)
	tm.eff, tm.thru = reducePhase(open), reducePhase(sat)
	tm.latQuiet = tm.eff.quiet
	first, last := open[0], sat[len(sat)-1]
	tm.allItems, tm.all = last.n-first.n, between(first.s, last.s)
	return tm, nil
}

// finish stops the source, drains the pipeline, takes the live heap,
// tears everything down and records the instance's gates.
func (in *pipeInst) finish(r *result, tm *timed) delta {
	in.release()
	werr := waitTimeout(in.p.Wait, 60*time.Second)
	after := takeSample(in.k)
	// Reduce the latency samples, then drop the benchmark's own
	// buffers, so the live heap is the system's.
	var quiet map[int64]bool
	if tm != nil {
		quiet = tm.latQuiet
	}
	in.latStats = in.lat.summarize(int64(sloLimit), quiet)
	if werr == nil { // the sink has returned
		in.emitNs, in.lat, in.latRec = nil, nil, nil
	}
	if tm != nil {
		tm.heapMB = liveHeapMB()
	}
	life := between(in.before, after)
	in.p.Destroy()
	in.k.Shutdown()
	leaked := in.k.Metrics().SlabLeaked.Value()

	name := in.spec.name
	if werr != nil {
		r.fail(name+".run", werr)
	}
	n := in.emitted.Load()
	r.check(name+".count", in.received.Load() == n, "sink received %d of %d items", in.received.Load(), n)
	want := referenceDigest(in.seed, 0, n, in.spec.size, in.stampOf(), in.spec.fns)
	r.check(name+".digest", in.dig.sum() == want && in.dig.n == n, "sink digest %.16s… over %d items, reference %.16s…", in.dig.sum(), in.dig.n, want)
	r.check(name+".slab_leaked", leaked == 0, "slab_leaked=%d after shutdown", leaked)
	if in.spec.paperCounts {
		stages := len(in.spec.fns) + 1
		r.check(name+".ejects", in.p.Ejects() == stages+1, "Pipeline.Ejects()=%d, paper n+2=%d", in.p.Ejects(), stages+1)
		// Batch=1, Window=1: every link moves each item with exactly
		// one Transfer; end of stream rides the last one or takes one
		// more per link.
		got, lo := life.met.Get("transfer_invocations"), int64(stages)*n
		r.check(name+".invocations", got >= lo && got <= lo+int64(stages),
			"transfer invocations %d, paper (n+1)·items=%d (+≤%d end-of-stream)", got, lo, stages)
	}
	r.attempted += n
	return life
}

// stampOf returns the stamp the source wrote on item i, for the
// reference digest: the seeded schedule for the open-loop items.
func (in *pipeInst) stampOf() func(i int64) int64 {
	if !in.spec.open {
		return func(int64) int64 { return noStamp }
	}
	s := newSchedule(in.seed, openRate)
	lo, hi := int64(warmItems), warmItems+in.nOpen.Load()
	return func(i int64) int64 {
		if i < lo || i >= hi {
			return noStamp
		}
		return s.next()
	}
}

func waitTimeout(f func() error, d time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("no end of stream after %v", d)
	}
}
