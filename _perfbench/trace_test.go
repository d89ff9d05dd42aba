package main

import (
	"testing"

	"asymstream/internal/transput"
)

type plainWriter struct{ puts int }

func (w *plainWriter) Put([]byte) error               { w.puts++; return nil }
func (w *plainWriter) Close() error                   { return nil }
func (w *plainWriter) CloseWithError(err error) error { return nil }

type ownedWriter struct {
	plainWriter
	owned int
}

func (w *ownedWriter) PutOwned([]byte) error { w.owned++; return nil }

func TestTraceWriterPreservesOwnedItemWriter(t *testing.T) {
	tr := newTracer()
	ow := &ownedWriter{}
	w := traceWriter(ow, tr.stage("f1", 0))
	if _, ok := w.(transput.OwnedItemWriter); !ok {
		t.Fatal("wrapping an OwnedItemWriter lost PutOwned")
	}
	if err := transput.PutOwned(w, makeItem(1, 0, 0, 32, noStamp)); err != nil {
		t.Fatal(err)
	}
	if ow.owned != 1 || ow.puts != 0 {
		t.Errorf("PutOwned through the wrapper: owned=%d puts=%d, want 1 and 0", ow.owned, ow.puts)
	}

	pw := &plainWriter{}
	w = traceWriter(pw, tr.stage("f2", 0))
	if _, ok := w.(transput.OwnedItemWriter); ok {
		t.Fatal("wrapping a plain writer invented PutOwned")
	}
	if traceWriter(pw, nil) != transput.ItemWriter(pw) {
		t.Error("untraced writers must not be wrapped")
	}
}

func TestTraceSpansFollowSampledItems(t *testing.T) {
	tr := newTracer()
	st := tr.stage("f1", 0)
	items := [][]byte{
		makeItem(1, 0, 0, 32, noStamp),
		makeItem(1, 0, 1, 32, noStamp),
		makeItem(1, 0, sampleEvery, 32, noStamp),
	}
	r := traceReader(transput.NewSliceReader(items), st)
	w := traceWriter(&ownedWriter{}, st)
	for {
		item, err := r.Next()
		if err != nil {
			break
		}
		if err := transput.PutOwned(w, item); err != nil {
			t.Fatal(err)
		}
	}
	tot := tr.totals()["f1"]
	if tot.items != 3 || tot.puts != 3 {
		t.Fatalf("items=%d puts=%d, want 3 and 3", tot.items, tot.puts)
	}
	// Items 0 and sampleEvery are sampled: a body span each, with a
	// next and a put child.
	byItem := map[uint64][]span{}
	for _, sp := range st.spans {
		byItem[sp.Item] = append(byItem[sp.Item], sp)
	}
	if len(byItem[1]) != 0 {
		t.Errorf("unsampled item 1 has spans %+v", byItem[1])
	}
	for _, id := range []uint64{0, sampleEvery} {
		sps := byItem[id]
		if len(sps) != 3 || sps[0].Name != "f1.body" {
			t.Fatalf("item %d spans = %+v", id, sps)
		}
		for _, c := range sps[1:] {
			if c.Parent != sps[0].ID || c.Start < sps[0].Start || c.End > sps[0].End {
				t.Errorf("item %d: child %+v not inside body %+v", id, c, sps[0])
			}
		}
	}
}
