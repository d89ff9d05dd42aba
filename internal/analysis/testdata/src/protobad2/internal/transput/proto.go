// Package transput seeds the off-by-one-window mutant: the gate
// admits a sender at active == limit, so window+1 deliveries can be
// in flight — the model proves the window breach (I2).
package transput

import "sync"

// AbortedError mirrors the real sticky abort status.
type AbortedError struct{ Msg string }

// wchan is the chanCore-family sink channel: it has the wait()
// helper and an abortErr field, which is what puts it in protomodel's
// scope.
type wchan struct {
	mu       sync.Mutex
	cond     *sync.Cond
	buf      [][]byte
	capacity int
	abortErr *AbortedError
	expected int
}

func newWchan(capacity int) *wchan {
	ch := &wchan{capacity: capacity}
	ch.cond = sync.NewCond(&ch.mu)
	return ch
}

func (ch *wchan) wait() {
	ch.cond.Wait()
}

// deliver is the sink side: the per-writer sequence gate and the
// capacity wait both re-check abortErr so parked deliveries drain on
// abort, and the reply carries the remaining capacity as credits.
func (ch *wchan) deliver(seq int, item []byte) (int, *AbortedError) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for ch.expected != seq && ch.abortErr == nil {
		ch.wait()
	}
	for len(ch.buf) >= ch.capacity && ch.abortErr == nil {
		ch.wait()
	}
	if ch.abortErr != nil {
		return 0, ch.abortErr
	}
	ch.buf = append(ch.buf, item)
	ch.expected++
	ch.cond.Broadcast()
	credits := ch.capacity - len(ch.buf)
	if credits < 0 {
		credits = 0
	}
	return credits, nil
}

// abort drops the backlog and wakes every parked waiter.
func (ch *wchan) abort(msg string) {
	ch.mu.Lock()
	if ch.abortErr == nil {
		ch.abortErr = &AbortedError{Msg: msg}
	}
	ch.buf = ch.buf[:0]
	ch.cond.Broadcast()
	ch.mu.Unlock()
}

// sender is the client side: one producer keeps up to limit Deliver
// calls outstanding and collects their replies oldest first.
type sender struct {
	calls  []chan int // outstanding replies (credits), oldest first
	active int
	limit  int
	window int
	batch  int
}

func newSender(window, batch int) *sender {
	return &sender{window: window, limit: window, batch: batch}
}

// send issues one delivery, then runs the window gate: while limit or
// more are outstanding, it collects the oldest.
func (w *sender) send(reply chan int) {
	w.calls = append(w.calls, reply)
	w.active++
	for w.active > w.limit { // want "admits active == limit" "I2 violated"
		w.collectOldest()
	}
}

// collectOldest folds the oldest reply's credits into the limit:
// floored at one so a zero-credit reply cannot park the stream
// forever, clamped to the window.
func (w *sender) collectOldest() {
	credits := <-w.calls[0]
	w.calls = w.calls[1:]
	w.active--
	lim := 1 + credits/w.batch
	if lim > w.window {
		lim = w.window
	}
	w.limit = lim
}
