package transput

import (
	"asymstream/internal/uid"
)

// Dynamic stream redirection — §8: "Redirection of input and output
// can be provided very naturally in a system where each entity is
// referred to by means of a unique identifier.  Special file or stream
// descriptors are not needed."
//
// Because an InPort's source is nothing but a (UID, channel) pair,
// retargeting a *live* stream is a local operation: abort the old
// source's channel (releasing any producer parked on a full buffer),
// forget any stale end-of-stream state, and pull from the new pair.
// Items already received are retained — redirection never loses data
// that has arrived.  The paper contrasts this with Unix, "where the
// shell uses different syntax and a different implementation" for
// file vs program redirection; here both are the same two words.
//
// Redirect must not be called concurrently with Next: an InPort has a
// single logical consumer (the paper's model too), and it is that
// consumer who redirects itself between reads.

// Redirect retargets the port at a new source/channel.  If the old
// stream had already ended, redirection simply continues with the new
// one (sequential concatenation); if it was still live, the old
// channel is aborted with msg.  A cancelled port cannot be redirected.
func (p *InPort) Redirect(source uid.UID, channel ChannelID, msg string) error {
	p.mu.Lock()
	if p.cancelled {
		p.mu.Unlock()
		return ErrClosed
	}
	oldSource, oldChannel := p.source, p.channel
	oldDone := p.done
	pullerWasOn := p.pullerOn
	var oldAhead chan pulled
	if pullerWasOn {
		close(p.stopPull)
		p.pullerOn = false
		oldAhead = p.ahead
		p.ahead = nil
	}
	p.mu.Unlock()

	// Release anything parked at the old source (our own in-flight
	// prefetch, or the producer blocked on a full buffer).  Skip the
	// abort when the old stream already ended: there is nothing to
	// release and the control invocation would distort the counts.
	if !oldDone {
		if msg == "" {
			msg = "redirected"
		}
		_, _ = p.k.Invoke(p.self, oldSource, OpAbort, &AbortRequest{Channel: oldChannel, Msg: msg})
	}
	if pullerWasOn {
		p.pullerWG.Wait()
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	// Salvage data the pullers had already fetched before the abort
	// reached the old source — arrived data is kept, per the contract.
	// absorbLocked keeps stream order; a batch beyond a gap is
	// indistinguishable from one that never arrived (its predecessor
	// was lost to the abort), so it is discarded rather than surfaced
	// out of order.
	if oldAhead != nil {
		for res := range oldAhead {
			if res.err == nil {
				p.absorbLocked(res)
			}
		}
	}
	p.releaseReorderLocked()
	p.source = source
	p.channel = channel
	p.req.Channel = channel // the reused request must follow the retarget
	p.done = false
	p.err = nil
	// The new stream has its own offsets: the next pull re-anchors.
	p.nextBase = -1
	p.streamLen = -1
	return nil
}

// Redirect retargets a Pusher at a new sink/channel.  Any buffered
// partial batch is flushed to the OLD target first (those items were
// written before the redirection), and every outstanding delivery to
// it is collected.  The old channel is left open — in the write-only
// discipline a sink must expect its writers to come and go; End is
// only sent by Close.  The new stream starts at sequence 0 under a
// fresh writer identity, since a sink expects an unseen writer at 0.
// A closed or failed pusher cannot be redirected.
func (w *Pusher) Redirect(target uid.UID, channel ChannelID) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err == nil && len(w.pending) > 0 {
		w.sendLocked(false, w.threshold())
	}
	w.drainLocked()
	if w.err != nil {
		return w.err
	}
	w.target = target
	w.channel = channel
	w.writer = w.k.NewUID()
	w.seq = 0
	w.limit = w.window
	return nil
}
