package device

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

func newDevKernel(t testing.TB) *kernel.Kernel {
	t.Helper()
	k := kernel.New(kernel.Config{})
	t.Cleanup(k.Shutdown)
	return k
}

// syncBuffer is a goroutine-safe bytes.Buffer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func staticSrc(t *testing.T, k *kernel.Kernel, text string) *ReadFromRequest {
	t.Helper()
	id, ch, err := StaticSource(k, 0, transput.SplitLines([]byte(text)), transput.ROStageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return &ReadFromRequest{Source: id, Channel: ch}
}

func TestTerminalPullsToScreen(t *testing.T) {
	k := newDevKernel(t)
	var screen syncBuffer
	_, termUID, err := NewTerminal(k, 0, &screen)
	if err != nil {
		t.Fatal(err)
	}
	req := staticSrc(t, k, "hello\nterminal\n")
	raw, err := k.Invoke(uid.Nil, termUID, OpReadFrom, req)
	if err != nil {
		t.Fatal(err)
	}
	rep := raw.(*ReadFromReply)
	if rep.Items != 2 || rep.Bytes != 15 {
		t.Fatalf("reply = %+v", rep)
	}
	if screen.String() != "hello\nterminal\n" {
		t.Fatalf("screen = %q", screen.String())
	}
}

func TestNullSinkCountsAndDiscards(t *testing.T) {
	k := newDevKernel(t)
	_, nullUID, err := NewNullSink(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := staticSrc(t, k, "a\nb\nc\n")
	raw, err := k.Invoke(uid.Nil, nullUID, OpReadFrom, req)
	if err != nil {
		t.Fatal(err)
	}
	if rep := raw.(*ReadFromReply); rep.Items != 3 {
		t.Fatalf("null sink read %d items", rep.Items)
	}
}

func TestPrinterBannerAndJobs(t *testing.T) {
	k := newDevKernel(t)
	var paper syncBuffer
	p, prUID, err := NewPrinter(k, 0, &paper)
	if err != nil {
		t.Fatal(err)
	}
	req1 := staticSrc(t, k, "page one\n")
	req1.Label = "report.txt"
	if _, err := k.Invoke(uid.Nil, prUID, OpPrint, req1); err != nil {
		t.Fatal(err)
	}
	req2 := staticSrc(t, k, "second job\n")
	if _, err := k.Invoke(uid.Nil, prUID, OpPrint, req2); err != nil {
		t.Fatal(err)
	}
	out := paper.String()
	if !strings.Contains(out, "=== report.txt ===") {
		t.Errorf("missing labelled banner: %q", out)
	}
	if !strings.Contains(out, "=== job 2 ===") {
		t.Errorf("missing default banner: %q", out)
	}
	if strings.Count(out, "\f") != 2 {
		t.Errorf("form feeds: %q", out)
	}
	if p.Jobs() != 2 {
		t.Errorf("jobs = %d", p.Jobs())
	}
}

func TestClockSourceServesOnDemand(t *testing.T) {
	k := newDevKernel(t)
	fake := time.Date(1983, 10, 10, 12, 0, 0, 0, time.UTC)
	calls := 0
	_, clkUID, err := NewClockSource(k, 0, func() time.Time {
		calls++
		return fake.Add(time.Duration(calls) * time.Second)
	}, time.RFC3339)
	if err != nil {
		t.Fatal(err)
	}
	in := transput.NewInPort(k, uid.Nil, clkUID, transput.Chan(0), transput.InPortConfig{})
	first, err := in.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := in.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) == string(second) {
		t.Fatalf("clock repeated itself: %q", first)
	}
	if !strings.HasPrefix(string(first), "1983-10-10T") {
		t.Fatalf("timestamp = %q", first)
	}
	// The clock never generates unless asked (pure passive output).
	if calls != 2 {
		t.Fatalf("clock generated %d stamps for 2 reads", calls)
	}
}

// TestClockSourceWindowedRead reads the clock through a windowed
// InPort, which orders concurrent replies by TransferReply.Base: the
// clock must stamp it, or the reader waits forever for offset 0 to be
// followed by offset 1.
func TestClockSourceWindowedRead(t *testing.T) {
	k := newDevKernel(t)
	var ticks atomic.Int64
	fake := time.Date(1983, 10, 10, 12, 0, 0, 0, time.UTC)
	_, clkUID, err := NewClockSource(k, 0, func() time.Time {
		return fake.Add(time.Duration(ticks.Add(1)) * time.Second)
	}, time.RFC3339)
	if err != nil {
		t.Fatal(err)
	}
	in := transput.NewInPort(k, uid.Nil, clkUID, transput.Chan(0), transput.InPortConfig{Window: 4})
	defer in.Cancel("test over")
	const n = 64
	done := make(chan error, 1)
	seen := map[string]bool{}
	go func() {
		for i := 0; i < n; i++ {
			item, err := in.Next()
			if err != nil {
				done <- err
				return
			}
			seen[string(item)] = true
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("windowed read of %d clock stamps did not finish", n)
	}
	if len(seen) != n {
		t.Fatalf("read %d distinct stamps of %d", len(seen), n)
	}
}

func TestCounterSource(t *testing.T) {
	k := newDevKernel(t)
	id, ch, err := CounterSource(k, 0, 5, transput.ROStageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	in := transput.NewInPort(k, uid.Nil, id, ch, transput.InPortConfig{Batch: 2})
	n := 0
	for {
		item, err := in.Next()
		if err != nil {
			break
		}
		if !strings.HasPrefix(string(item), "line ") {
			t.Fatalf("item %q", item)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("counter emitted %d", n)
	}
}

func TestWindowPullMode(t *testing.T) {
	// Figure 4: the window pulls multiple report channels and labels
	// them.
	k := newDevKernel(t)
	w, wUID, err := NewReportWindow(k, 0, nil, ReportWindowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aID, aCh, err := StaticSource(k, 0, transput.SplitLines([]byte("r1\nr2\n")), transput.ROStageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bID, bCh, err := StaticSource(k, 0, transput.SplitLines([]byte("s1\n")), transput.ROStageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Watch(k, wUID, aID, aCh, "A"); err != nil {
		t.Fatal(err)
	}
	if err := Watch(k, wUID, bID, bCh, "B"); err != nil {
		t.Fatal(err)
	}
	w.WaitQuiescent()
	lines := w.Lines()
	if len(lines) != 3 {
		t.Fatalf("window lines = %d", len(lines))
	}
	var got []string
	for _, l := range lines {
		got = append(got, string(l))
	}
	sort.Strings(got)
	want := []string{"[A] r1\n", "[A] r2\n", "[B] s1\n"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window = %v", got)
		}
	}
}

func TestWindowPushMode(t *testing.T) {
	// Figure 3: anonymous pushed reports from two writers.
	k := newDevKernel(t)
	w, wUID, err := NewReportWindow(k, 0, nil, ReportWindowConfig{Writers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := transput.NewPusher(k, uid.Nil, wUID, w.PushChannel(), transput.PusherConfig{})
			_ = p.Put([]byte("report\n"))
			_ = p.Close()
		}(i)
	}
	wg.Wait()
	w.WaitQuiescent()
	if n := len(w.Lines()); n != 2 {
		t.Fatalf("pushed lines = %d", n)
	}
}

func TestDeviceUnknownOp(t *testing.T) {
	k := newDevKernel(t)
	_, termUID, err := NewTerminal(k, 0, &syncBuffer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Invoke(uid.Nil, termUID, "Device.Bogus", &ReadFromRequest{}); !errors.Is(err, kernel.ErrNoSuchOperation) {
		t.Fatalf("want ErrNoSuchOperation, got %v", err)
	}
}

func TestReadFromBadSourceFails(t *testing.T) {
	k := newDevKernel(t)
	_, termUID, err := NewTerminal(k, 0, &syncBuffer{})
	if err != nil {
		t.Fatal(err)
	}
	req := &ReadFromRequest{Source: uid.New(), Channel: transput.Chan(0)}
	if _, err := k.Invoke(uid.Nil, termUID, OpReadFrom, req); err == nil {
		t.Fatal("ReadFrom nonexistent source succeeded")
	}
}
