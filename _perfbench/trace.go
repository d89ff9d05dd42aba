package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"

	"asymstream/internal/transput"
)

// The traced run records spans only in the benchmark's own code:
// around each call its stage bodies make into a port (ItemReader.Next,
// ItemWriter.Put/PutOwned).  Aggregates cover every item; full spans
// are kept for a sampled subset of item ids (1 in sampleEvery) in
// per-stage buffers owned by the stage's goroutine, and written out
// when the run ends.

const (
	sampleEvery     = 1024
	spanCapPerStage = 4096
)

// span is one timed interval.  Times are nowNs: ns since the benchmark
// started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Stream uint64 `json:"stream"`
	Item   uint64 `json:"item"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer hands out stage recorders and gathers their results.
type tracer struct {
	mu     sync.Mutex
	stages []*stageTrace
}

func newTracer() *tracer { return &tracer{} }

// stage returns a recorder for one goroutine's stage body.  Several
// recorders may share a name (the gateway's pumps); results merge by
// name.
func (t *tracer) stage(name string, stream uint64) *stageTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &stageTrace{
		name:   name,
		stream: stream,
		idBase: uint64(len(t.stages)+1) << 40,
		spans:  make([]span, 0, spanCapPerStage),
	}
	t.stages = append(t.stages, st)
	return st
}

// stageTrace is one stage body's recorder.  Only the goroutine running
// the body touches it until the body has returned.
type stageTrace struct {
	name   string
	stream uint64
	idBase uint64
	nextID uint64

	items, puts   int64
	nextNs, putNs int64
	first, last   int64 // first Next start, last Next return: the body span

	// The item in hand: its Next and Put intervals, emitted as a body
	// span with two children when the stage asks for its next item.
	cur                uint64
	curNext0, curNext1 int64
	curPut0, curPut1   int64
	havePut, haveCur   bool

	spans   []span
	dropped int64
}

func (s *stageTrace) id() uint64 { s.nextID++; return s.idBase | s.nextID }

func (s *stageTrace) emit(sp span) {
	if len(s.spans) == cap(s.spans) {
		s.dropped++
		return
	}
	s.spans = append(s.spans, sp)
}

// flush closes the body span of the item in hand at time end.
func (s *stageTrace) flush(end int64) {
	if !s.haveCur {
		return
	}
	s.haveCur = false
	if s.cur%sampleEvery != 0 {
		s.havePut = false
		return
	}
	body := s.id()
	s.emit(span{ID: body, Name: s.name + ".body", Stream: s.stream, Item: s.cur, Start: s.curNext0, End: end})
	s.emit(span{ID: s.id(), Parent: body, Name: s.name + ".next", Stream: s.stream, Item: s.cur, Start: s.curNext0, End: s.curNext1})
	if s.havePut {
		s.emit(span{ID: s.id(), Parent: body, Name: s.name + ".put", Stream: s.stream, Item: s.cur, Start: s.curPut0, End: s.curPut1})
	}
	s.havePut = false
}

func (s *stageTrace) recordNext(t0, t1 int64, item []byte, err error) {
	s.flush(t0)
	if s.first == 0 {
		s.first = t0
	}
	s.last = t1
	s.nextNs += t1 - t0
	if err != nil || len(item) < headerBytes {
		return
	}
	s.items++
	s.cur, s.curNext0, s.curNext1, s.haveCur = itemID(item), t0, t1, true
}

func (s *stageTrace) recordPut(t0, t1 int64, id uint64) {
	s.puts++
	s.putNs += t1 - t0
	if s.haveCur && s.cur == id {
		s.curPut0, s.curPut1, s.havePut = t0, t1, true
		return
	}
	// A source stage has no Next: its puts are root spans.
	if id%sampleEvery == 0 {
		s.emit(span{ID: s.id(), Name: s.name + ".put", Stream: s.stream, Item: id, Start: t0, End: t1})
	}
}

// tracedReader times ItemReader.Next.
type tracedReader struct {
	r  transput.ItemReader
	st *stageTrace
}

func (r *tracedReader) Next() ([]byte, error) {
	t0 := nowNs()
	item, err := r.r.Next()
	r.st.recordNext(t0, nowNs(), item, err)
	return item, err
}

// tracedWriter times ItemWriter.Put.
type tracedWriter struct {
	w  transput.ItemWriter
	st *stageTrace
}

func (w *tracedWriter) Put(item []byte) error {
	id := headerID(item)
	t0 := nowNs()
	err := w.w.Put(item)
	w.st.recordPut(t0, nowNs(), id)
	return err
}

func (w *tracedWriter) Close() error                   { return w.w.Close() }
func (w *tracedWriter) CloseWithError(err error) error { return w.w.CloseWithError(err) }

// tracedOwnedWriter adds PutOwned for writers that take ownership, so
// a traced stage hands items over on the same path an untraced one
// does.  The id is read before the call: after it the item is gone.
type tracedOwnedWriter struct {
	tracedWriter
	ow transput.OwnedItemWriter
}

func (w *tracedOwnedWriter) PutOwned(item []byte) error {
	id := headerID(item)
	t0 := nowNs()
	err := w.ow.PutOwned(item)
	w.st.recordPut(t0, nowNs(), id)
	return err
}

func headerID(item []byte) uint64 {
	if len(item) < headerBytes {
		return 0
	}
	return itemID(item)
}

// traceReader wraps r when st is non-nil.
func traceReader(r transput.ItemReader, st *stageTrace) transput.ItemReader {
	if st == nil {
		return r
	}
	return &tracedReader{r: r, st: st}
}

// traceWriter wraps w when st is non-nil, keeping OwnedItemWriter when
// w has it.
func traceWriter(w transput.ItemWriter, st *stageTrace) transput.ItemWriter {
	if st == nil {
		return w
	}
	tw := tracedWriter{w: w, st: st}
	if ow, ok := w.(transput.OwnedItemWriter); ok {
		return &tracedOwnedWriter{tracedWriter: tw, ow: ow}
	}
	return &tw
}

// stageTotals is the merged aggregate of every recorder of one name.
type stageTotals struct {
	items, puts   int64
	nextNs, putNs int64
	bodyNs        int64
}

// selfShare is the body time not spent waiting in Next or Put, over
// the body time.
func (s stageTotals) selfShare() float64 {
	if s.bodyNs <= 0 {
		return 0
	}
	return float64(s.bodyNs-s.nextNs-s.putNs) / float64(s.bodyNs)
}

func (t *tracer) totals() map[string]stageTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]stageTotals{}
	for _, st := range t.stages {
		st.flush(st.last)
		tot := out[st.name]
		tot.items += st.items
		tot.puts += st.puts
		tot.nextNs += st.nextNs
		tot.putNs += st.putNs
		if st.last > st.first {
			tot.bodyNs += st.last - st.first
		}
		out[st.name] = tot
	}
	return out
}

// writeSpans writes every kept span as one JSON object per line,
// ordered by start time, and reports how many were kept and dropped.
func (t *tracer) writeSpans(path string) (kept, dropped int64, err error) {
	t.mu.Lock()
	var all []span
	for _, st := range t.stages {
		all = append(all, st.spans...)
		dropped += st.dropped
	}
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return 0, dropped, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range all {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return 0, dropped, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, dropped, err
	}
	return int64(len(all)), dropped, f.Close()
}
