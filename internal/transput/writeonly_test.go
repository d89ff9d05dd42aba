package transput

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// registerWOSink creates and registers a WOStage that collects its
// input items into *got (guarded by mu).
func registerWOSink(t *testing.T, k *kernel.Kernel, got *[][]byte, mu *sync.Mutex, cfg WOStageConfig) (uid.UID, *WOStage) {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test-sink"
	}
	st := NewWOStage(k, cfg, func(ins []ItemReader, _ []ItemWriter) error {
		for {
			item, err := ins[0].Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			mu.Lock()
			*got = append(*got, item)
			mu.Unlock()
		}
	})
	id := k.NewUID()
	if err := k.CreateWithUID(id, st, 0); err != nil {
		t.Fatal(err)
	}
	st.Start()
	return id, st
}

func TestPusherDeliversInOrder(t *testing.T) {
	for _, batch := range []int{1, 4, 32} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			k := testKernel(t)
			var got [][]byte
			var mu sync.Mutex
			sinkID, sink := registerWOSink(t, k, &got, &mu, WOStageConfig{})
			p := NewPusher(k, uid.Nil, sinkID, Chan(0), PusherConfig{Batch: batch})
			for i := 0; i < 43; i++ {
				if err := p.Put([]byte(fmt.Sprintf("i%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			<-sink.Done()
			if err := sink.Err(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(got) != 43 {
				t.Fatalf("got %d items", len(got))
			}
			for i, item := range got {
				if string(item) != fmt.Sprintf("i%d", i) {
					t.Fatalf("order broken at %d: %q", i, item)
				}
			}
			if batch == 1 && p.DeliversIssued() < 43 {
				t.Errorf("batch-1 delivers = %d", p.DeliversIssued())
			}
		})
	}
}

func TestPusherFlushAndDoubleClose(t *testing.T) {
	k := testKernel(t)
	var got [][]byte
	var mu sync.Mutex
	sinkID, sink := registerWOSink(t, k, &got, &mu, WOStageConfig{})
	p := NewPusher(k, uid.Nil, sinkID, Chan(0), PusherConfig{Batch: 100})
	if err := p.Put([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	flushed := len(got)
	mu.Unlock()
	if flushed == 0 {
		// Flush is synchronous (Deliver reply awaited), but the sink
		// body consumes asynchronously; give it a beat.
		time.Sleep(50 * time.Millisecond)
		mu.Lock()
		flushed = len(got)
		mu.Unlock()
	}
	if flushed != 1 {
		t.Fatalf("after Flush sink has %d items", flushed)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("second Close must be a no-op:", err)
	}
	if err := p.Put([]byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v", err)
	}
	if err := p.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v", err)
	}
	<-sink.Done()
}

func TestWOFanInMerge(t *testing.T) {
	// §5: multiple writers merge indistinguishably; the stream ends
	// after every expected writer sends End.
	k := testKernel(t)
	var got [][]byte
	var mu sync.Mutex
	sinkID, sink := registerWOSink(t, k, &got, &mu, WOStageConfig{Writers: []int{3}})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := NewPusher(k, uid.Nil, sinkID, Chan(0), PusherConfig{})
			for i := 0; i < 10; i++ {
				if err := p.Put([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
			if err := p.Close(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	select {
	case <-sink.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("sink never saw 3 Ends")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 30 {
		t.Fatalf("merged %d items, want 30", len(got))
	}
	// Per-writer order must be preserved within the merge.
	pos := map[int]int{}
	for _, item := range got {
		var w, i int
		if _, err := fmt.Sscanf(string(item), "w%d-%d", &w, &i); err != nil {
			t.Fatalf("bad item %q", item)
		}
		if i != pos[w] {
			t.Fatalf("writer %d out of order: got %d want %d", w, i, pos[w])
		}
		pos[w]++
	}
}

func TestWOBackpressureBlocksPusher(t *testing.T) {
	k := testKernel(t)
	// A sink with a tiny buffer whose consumer is gated.
	gate := make(chan struct{})
	st := NewWOStage(k, WOStageConfig{Name: "slow-sink", Capacity: 2}, func(ins []ItemReader, _ []ItemWriter) error {
		<-gate
		_, err := Drain(ins[0])
		return err
	})
	sinkID := k.NewUID()
	if err := k.CreateWithUID(sinkID, st, 0); err != nil {
		t.Fatal(err)
	}
	st.Start()

	p := NewPusher(k, uid.Nil, sinkID, Chan(0), PusherConfig{})
	done := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < 50; i++ {
			if err := p.Put([]byte("x")); err != nil {
				break
			}
			n++
		}
		_ = p.Close()
		done <- n
	}()
	// With capacity 2 and a gated consumer, the pusher must stall long
	// before 50.
	select {
	case <-done:
		t.Fatal("pusher never blocked against a full buffer")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	select {
	case n := <-done:
		if n != 50 {
			t.Fatalf("pushed %d items", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pusher stuck after gate opened")
	}
	<-st.Done()
}

func TestWOReaderCancelReleasesPusher(t *testing.T) {
	k := testKernel(t)
	st := NewWOStage(k, WOStageConfig{Name: "cancelling-sink", Capacity: 1}, func(ins []ItemReader, _ []ItemWriter) error {
		// Read two items then cancel.
		for i := 0; i < 2; i++ {
			if _, err := ins[0].Next(); err != nil {
				return err
			}
		}
		ins[0].(*ChannelReader).Cancel("had enough")
		return nil
	})
	sinkID := k.NewUID()
	if err := k.CreateWithUID(sinkID, st, 0); err != nil {
		t.Fatal(err)
	}
	st.Start()
	p := NewPusher(k, uid.Nil, sinkID, Chan(0), PusherConfig{})
	var lastErr error
	for i := 0; i < 100; i++ {
		if lastErr = p.Put([]byte("x")); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrAborted) {
		t.Fatalf("pusher should see abort, got %v", lastErr)
	}
}

func TestPusherCloseWithErrorAborts(t *testing.T) {
	k := testKernel(t)
	var got [][]byte
	var mu sync.Mutex
	sinkID, sink := registerWOSink(t, k, &got, &mu, WOStageConfig{})
	p := NewPusher(k, uid.Nil, sinkID, Chan(0), PusherConfig{})
	if err := p.Put([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseWithError(errors.New("upstream exploded")); err != nil {
		t.Fatal(err)
	}
	<-sink.Done()
	err := sink.Err()
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("sink error = %v, want abort", err)
	}

	// Against a stalled sink (capacity 1, never read) CloseWithError
	// must send its Abort before collecting the deliveries parked
	// there, or it waits for them forever.
	for _, window := range []int{1, 4} {
		t.Run(fmt.Sprintf("stalled/window=%d", window), func(t *testing.T) {
			k := testKernel(t)
			met := k.Metrics()
			port := NewWOInPort(k, WOInPortConfig{})
			reader := port.Declare("in", 0, 1, 1)
			id := k.NewUID()
			if err := k.CreateWithUID(id, &woPortEject{p: port}, 0); err != nil {
				t.Fatal(err)
			}
			slab := wire.NewSlab(met, 1<<14)
			p := NewPusher(k, uid.Nil, id, Chan(0), PusherConfig{Window: window})
			// As many Puts as return without a reader: the first fills
			// the sink, up to window-1 more stay parked at it.
			for i := 0; i < max(1, window-1); i++ {
				v := slab.Alloc(8)
				copy(v, fmt.Sprintf("item-%02d", i))
				if err := p.PutOwned(v); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan error, 1)
			go func() { done <- p.CloseWithError(errors.New("giving up")) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("CloseWithError hung on a stalled sink")
			}
			if _, err := reader.Next(); !errors.Is(err, ErrAborted) {
				t.Fatalf("reader after abort: %v", err)
			}
			if n := slab.Close(); n != 0 || met.SlabLeaked.Value() != 0 {
				t.Fatalf("slab leak audit: %d views outstanding, SlabLeaked=%d", n, met.SlabLeaked.Value())
			}
		})
	}
}

// holdSink is a Deliver target that reports each arrival and holds
// its reply until the test releases it, so the test decides when a
// delivery is acknowledged.  Deliveries are released in Seq order:
// the pusher collects its oldest delivery first, so releasing a
// younger one would leave the pusher blocked on the oldest.
type holdSink struct {
	arrived chan struct{}
	acked   atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	released uint64 // deliveries with Seq below this may reply
}

func newHoldSink(arrivals int) *holdSink {
	h := &holdSink{arrived: make(chan struct{}, arrivals)}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// release lets the oldest held delivery reply.
func (h *holdSink) release() {
	h.mu.Lock()
	h.released++
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *holdSink) EdenType() string { return "test-hold-sink" }
func (h *holdSink) Serve(inv *kernel.Invocation) {
	seq := inv.Payload.(*DeliverRequest).Seq
	h.arrived <- struct{}{}
	h.mu.Lock()
	for seq >= h.released {
		h.cond.Wait()
	}
	h.mu.Unlock()
	h.acked.Add(1)
	inv.Reply(&DeliverReply{Status: StatusOK, Credits: 1 << 20})
}

// TestPusherWindowBoundsUnacked pins the window's back pressure: when
// Put returns, at most Window-1 deliveries are unacknowledged — none
// at Window 1, the paper's stop-and-wait.  The sink acknowledges a
// delivery only once the pusher has filled its window, so the bound
// is reached, not merely respected.
func TestPusherWindowBoundsUnacked(t *testing.T) {
	for _, window := range []int{1, 4} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			k := testKernel(t)
			const items = 20
			const delivers = items + 1 // one per item, then End
			sink := newHoldSink(delivers)
			id := k.NewUID()
			if err := k.CreateWithUID(id, sink, 0); err != nil {
				t.Fatal(err)
			}
			p := NewPusher(k, uid.Nil, id, Chan(0), PusherConfig{Window: window})
			unacked := make(chan int64, items)
			go func() {
				defer close(unacked)
				for i := 0; i < items; i++ {
					if err := p.Put([]byte("x")); err != nil {
						t.Error(err)
						return
					}
					unacked <- p.DeliversIssued() - sink.acked.Load()
				}
				if err := p.Close(); err != nil {
					t.Error(err)
				}
			}()
			timeout := time.After(10 * time.Second)
			arrived := 0
			for acked := 0; acked < delivers; acked++ {
				for arrived < min(acked+window, delivers) {
					select {
					case <-sink.arrived:
						arrived++
					case <-timeout:
						t.Fatalf("window never filled: %d arrived, %d acknowledged", arrived, acked)
					}
				}
				sink.release()
			}
			var peak int64
			for n := range unacked {
				if n > int64(window-1) {
					t.Fatalf("Put returned with %d deliveries unacknowledged, window %d", n, window)
				}
				peak = max(peak, n)
			}
			if peak != int64(window-1) {
				t.Fatalf("peak unacknowledged after Put = %d, want %d", peak, window-1)
			}
		})
	}
}

// TestPusherWindowOverlapsWireLatency pins that a window of K
// Delivers overlaps the wire round trips instead of queueing them.
// The pusher issues every Deliver from the producer's goroutine, so
// this holds only because the kernel carries both legs of a hop on
// the serving side and never suspends the invoker (§1).
func TestPusherWindowOverlapsWireLatency(t *testing.T) {
	elapsed := func(window int) time.Duration {
		k := crossNodeKernel(t, netsim.Config{CrossLatency: 5 * time.Millisecond})
		port := NewWOInPort(k, WOInPortConfig{})
		port.Declare("in", 0, 64, 1)
		id := k.NewUID()
		if err := k.CreateWithUID(id, &woPortEject{p: port}, 1); err != nil {
			t.Fatal(err)
		}
		p := NewPusher(k, uid.Nil, id, Chan(0), PusherConfig{Window: window})
		start := time.Now()
		for i := 0; i < 12; i++ {
			if err := p.Put([]byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	one, four := elapsed(1), elapsed(4)
	if 2*four > one {
		t.Fatalf("window 4 took %v against %v at window 1: round trips did not overlap", four, one)
	}
}

func TestWOCapabilityChannels(t *testing.T) {
	k := testKernel(t)
	var got [][]byte
	var mu sync.Mutex
	sinkID, sink := registerWOSink(t, k, &got, &mu, WOStageConfig{CapabilityMode: true})
	capID := sink.Reader(0).ID()
	if !capID.IsCap() {
		t.Fatal("no capability minted")
	}
	// Forged deliveries refused.
	forged := NewPusher(k, uid.Nil, sinkID, Chan(0), PusherConfig{})
	if err := forged.Put([]byte("x")); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("integer forge: %v", err)
	}
	guessed := NewPusher(k, uid.Nil, sinkID, CapChan(uid.New()), PusherConfig{})
	if err := guessed.Put([]byte("x")); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("guessed cap: %v", err)
	}
	// Holder succeeds.
	p := NewPusher(k, uid.Nil, sinkID, capID, PusherConfig{})
	if err := p.Put([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-sink.Done()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || string(got[0]) != "ok" {
		t.Fatalf("got %q", got)
	}
}

func TestMultiWriterFanOut(t *testing.T) {
	var a, b CollectWriter
	mw := NewMultiWriter(&a, &b)
	for i := 0; i < 5; i++ {
		if err := mw.Put([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 5 || len(b.Items) != 5 {
		t.Fatalf("fan-out lost items: %d/%d", len(a.Items), len(b.Items))
	}
	if err := mw.Put([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v", err)
	}
}

func TestPassiveBufferBridgesActives(t *testing.T) {
	// The conventional discipline's core: active writer + passive
	// buffer + active reader.
	k := testKernel(t)
	buf := NewPassiveBuffer(k, PassiveBufferConfig{Name: "pipe", Capacity: 4})
	bufID, err := k.Create(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPusher(k, uid.Nil, bufID, Chan(0), PusherConfig{Batch: 2})
	go func() {
		for i := 0; i < 25; i++ {
			if err := p.Put([]byte(fmt.Sprintf("%d", i))); err != nil {
				return
			}
		}
		_ = p.Close()
	}()
	in := NewInPort(k, uid.Nil, bufID, Chan(0), InPortConfig{Batch: 3})
	got := drainAll(t, in)
	if len(got) != 25 {
		t.Fatalf("buffer passed %d items", len(got))
	}
	for i, item := range got {
		if string(item) != fmt.Sprintf("%d", i) {
			t.Fatalf("buffer reordered at %d: %q", i, item)
		}
	}
}

func TestPassiveBufferAbort(t *testing.T) {
	k := testKernel(t)
	buf := NewPassiveBuffer(k, PassiveBufferConfig{Name: "pipe"})
	bufID, err := k.Create(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Invoke(uid.Nil, bufID, OpAbort, &AbortRequest{Channel: Chan(0), Msg: "teardown"}); err != nil {
		t.Fatal(err)
	}
	in := NewInPort(k, uid.Nil, bufID, Chan(0), InPortConfig{})
	if _, err := in.Next(); !errors.Is(err, ErrAborted) {
		t.Fatalf("reader after abort: %v", err)
	}
	p := NewPusher(k, uid.Nil, bufID, Chan(0), PusherConfig{})
	if err := p.Put([]byte("x")); !errors.Is(err, ErrAborted) {
		t.Fatalf("writer after abort: %v", err)
	}

	// An abort drops the backlog, as on every port channel: the next
	// Transfer sees the abort with no items, and the slab views come
	// back before the Eject is deactivated.
	t.Run("drops backlog", func(t *testing.T) {
		k := testKernel(t)
		buf := NewPassiveBuffer(k, PassiveBufferConfig{Name: "pipe", Capacity: 16})
		bufID, err := k.Create(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		slab := wire.NewSlab(k.Metrics(), 1<<14)
		items := make([][]byte, 6)
		for i := range items {
			items[i] = slab.Alloc(8)
			copy(items[i], fmt.Sprintf("item-%02d", i))
		}
		if _, err := k.Invoke(uid.Nil, bufID, OpDeliver, &DeliverRequest{Channel: Chan(0), Items: items}); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Invoke(uid.Nil, bufID, OpAbort, &AbortRequest{Channel: Chan(0), Msg: "teardown"}); err != nil {
			t.Fatal(err)
		}
		raw, err := k.Invoke(uid.Nil, bufID, OpTransfer, &TransferRequest{Channel: Chan(0), Max: 16})
		if err != nil {
			t.Fatal(err)
		}
		if rep := raw.(*TransferReply); rep.Status != StatusAborted || len(rep.Items) != 0 {
			t.Fatalf("Transfer after abort: status %v with %d items, want aborted with none", rep.Status, len(rep.Items))
		}
		if n := slab.Close(); n != 0 {
			t.Fatalf("slab leak audit found %d views still buffered after abort", n)
		}
		buf.OnDeactivate()
	})
}

// woPortEject exposes a bare WOInPort to the kernel so tests can drive
// Deliver/Abort invocations against it without a stage body draining
// the channel.
type woPortEject struct{ p *WOInPort }

func (e *woPortEject) EdenType() string { return "test-wo-port" }
func (e *woPortEject) Serve(inv *kernel.Invocation) {
	if !e.p.Serve(inv) {
		inv.Fail(kernel.ErrNoSuchOperation)
	}
}

// TestWOAbortReleasesBacklog pins the remote-abort teardown path: a
// channel holding undrained slab-backed deliveries is aborted via
// OpAbort, and every buffered view must be handed back to the slab —
// the same drop every abort path of the shared stream buffer applies.
// Regression test: abortOne used to set abortErr without releasing the
// backlog, stranding the views until the slab's Close leak audit.
func TestWOAbortReleasesBacklog(t *testing.T) {
	k := testKernel(t)
	met := k.Metrics()
	port := NewWOInPort(k, WOInPortConfig{})
	reader := port.Declare("in", 0, 16, 1)
	id := k.NewUID()
	if err := k.CreateWithUID(id, &woPortEject{p: port}, 0); err != nil {
		t.Fatal(err)
	}

	slab := wire.NewSlab(met, 1<<14)
	items := make([][]byte, 6)
	for i := range items {
		v := slab.Alloc(8)
		copy(v, fmt.Sprintf("item-%02d", i))
		items[i] = v
	}
	if _, err := k.Invoke(uid.Nil, id, OpDeliver, &DeliverRequest{Channel: Chan(0), Items: items}); err != nil {
		t.Fatal(err)
	}
	// Abort with the whole backlog undrained.
	if _, err := k.Invoke(uid.Nil, id, OpAbort, &AbortRequest{Channel: Chan(0), Msg: "teardown"}); err != nil {
		t.Fatal(err)
	}
	if ret, rel := met.SlabRetained.Value(), met.SlabReleased.Value(); ret != rel {
		t.Errorf("slab views retained=%d released=%d after remote abort", ret, rel)
	}
	if n := slab.Close(); n != 0 {
		t.Fatalf("slab leak audit found %d stranded views after abort", n)
	}
	var abortErr *AbortedError
	if _, err := reader.Next(); !errors.As(err, &abortErr) {
		t.Fatalf("reader after abort: %v", err)
	}
}
