package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero counter must read 0")
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	c.Set(7)
	if got := c.Value(); got != 7 {
		t.Fatalf("after Set: %d, want 7", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("concurrent counter = %d, want 16000", got)
	}
}

func TestHighWater(t *testing.T) {
	var h HighWater
	if h.Value() != 0 {
		t.Fatal("zero high-water must read 0")
	}
	h.Observe(5)
	h.Observe(3)
	if got := h.Value(); got != 5 {
		t.Fatalf("high-water = %d, want 5", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(int64(i*1000 + j))
			}
		}()
	}
	wg.Wait()
	if got := h.Value(); got != 7999 {
		t.Fatalf("concurrent high-water = %d, want 7999", got)
	}
}

func TestSnapshotDiff(t *testing.T) {
	var s Set
	before := s.Snapshot()
	s.Invocations.Add(10)
	s.Syscalls.Add(3)
	s.TransferInvocations.Add(7)
	after := s.Snapshot()
	d := Diff(before, after)
	if d.Get("invocations") != 10 {
		t.Errorf("invocations diff = %d, want 10", d.Get("invocations"))
	}
	if d.Get("syscalls") != 3 {
		t.Errorf("syscalls diff = %d, want 3", d.Get("syscalls"))
	}
	if d.Get("transfer_invocations") != 7 {
		t.Errorf("transfer diff = %d, want 7", d.Get("transfer_invocations"))
	}
	if d.Get("replies") != 0 {
		t.Errorf("replies diff = %d, want 0", d.Get("replies"))
	}
	if d.Get("nonexistent") != 0 {
		t.Error("unknown counter should read 0")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Add(10)
	g.Dec()
	g.Sub(4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge after Set = %d, want -3", got)
	}
}

func TestSnapshotCoversEveryCounter(t *testing.T) {
	var s Set
	snap := s.Snapshot()
	want := []string{
		"invocations", "local_invocations", "cross_node_invocations",
		"replies", "process_switches", "bytes_moved", "wire_bytes",
		"activations", "checkpoints", "syscalls", "ejects_created",
		"transfer_invocations", "deliver_invocations", "items_moved",
		"shard_frames", "wire_frames_encoded", "wire_bytes_saved",
		"slab_retained", "slab_released", "slab_leaked",
		"fusion_groups", "fused_stages",
		"channels_live", "idle_channel_bytes", "channel_lookup_contention",
		"cap_cache_hits", "cap_cache_misses",
		"window_depth_hw", "merge_reorder_hw", "batch_size_hw",
	}
	if len(snap.Values) != len(want) {
		t.Fatalf("snapshot has %d counters, want %d", len(snap.Values), len(want))
	}
	for _, name := range want {
		if _, ok := snap.Values[name]; !ok {
			t.Errorf("snapshot missing counter %q", name)
		}
	}
}

func TestSnapshotStringOmitsZeros(t *testing.T) {
	var s Set
	s.Invocations.Add(2)
	s.BytesMoved.Add(100)
	str := s.Snapshot().String()
	if !strings.Contains(str, "invocations=2") {
		t.Errorf("String() = %q, missing invocations", str)
	}
	if !strings.Contains(str, "bytes_moved=100") {
		t.Errorf("String() = %q, missing bytes_moved", str)
	}
	if strings.Contains(str, "syscalls") {
		t.Errorf("String() = %q should omit zero counters", str)
	}
}

func TestDiffMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Diff of mismatched snapshots should panic")
		}
	}()
	Diff(Snapshot{Values: map[string]int64{"a": 1}}, Snapshot{Values: map[string]int64{"a": 1, "b": 2}})
}
