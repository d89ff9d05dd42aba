package device

import (
	"fmt"
	"sync/atomic"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// ClockSource is the paper's example of a degenerate source: "An Eject
// which responds to a read invocation by returning the current date
// and time is a source" (§4).  It is the purest passive output: each
// Transfer is answered with a freshly generated item, on demand, and
// the stream never ends.
type ClockSource struct {
	now    func() time.Time
	format string
	// served is the stream offset of the next timestamp: each reply's
	// TransferReply.Base, so a windowed reader can order its replies.
	served atomic.Int64
}

// NewClockSource creates and registers a clock on the given node.
// now may be nil (wall clock); format may be empty (RFC 3339).
func NewClockSource(k *kernel.Kernel, node netsim.NodeID, now func() time.Time, format string) (*ClockSource, uid.UID, error) {
	if now == nil {
		now = time.Now
	}
	if format == "" {
		format = time.RFC3339
	}
	c := &ClockSource{now: now, format: format}
	id, err := k.Create(c, node)
	if err != nil {
		return nil, uid.Nil, err
	}
	return c, id, nil
}

// EdenType implements kernel.Eject.
func (c *ClockSource) EdenType() string { return "device.ClockSource" }

// Serve implements kernel.Eject: every Transfer gets one timestamp
// item per requested slot (Max timestamps per invocation when
// batching).
func (c *ClockSource) Serve(inv *kernel.Invocation) {
	switch inv.Op {
	case transput.OpTransfer:
		req, ok := inv.Payload.(*transput.TransferRequest)
		if !ok {
			inv.Fail(kernel.ErrNoSuchOperation)
			return
		}
		max := req.Max
		if max <= 0 {
			max = 1
		}
		items := make([][]byte, max)
		for i := range items {
			items[i] = []byte(c.now().Format(c.format) + "\n")
		}
		base := c.served.Add(int64(max)) - int64(max)
		inv.Reply(&transput.TransferReply{Items: items, Status: transput.StatusOK, Base: base})
	case transput.OpChannels:
		inv.Reply(&transput.ChannelsReply{Channels: []transput.ChannelAdvert{
			{Name: "Output", ID: transput.Chan(transput.ChannelOutput), Dir: "out"},
		}})
	case transput.OpAbort:
		// A clock has no state to tear down.
		inv.Reply(&transput.AbortReply{})
	default:
		inv.Fail(fmt.Errorf("%w: %q on ClockSource", kernel.ErrNoSuchOperation, inv.Op))
	}
}

// StaticSource registers a read-only source Eject that serves a fixed
// sequence of items and then ends — the in-memory stand-in for "a
// file opened for input" (§4).  It returns the source's UID and its
// primary channel identifier (capability-mode aware).
func StaticSource(k *kernel.Kernel, node netsim.NodeID, items [][]byte, cfg transput.ROStageConfig) (uid.UID, transput.ChannelID, error) {
	cp := make([][]byte, len(items))
	for i, it := range items {
		cp[i] = append([]byte(nil), it...)
	}
	if cfg.Name == "" {
		cfg.Name = "static-source"
	}
	st := transput.NewROStage(k, cfg, func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
		for _, it := range cp {
			if err := outs[0].Put(it); err != nil {
				return err
			}
		}
		return nil
	})
	id := k.NewUID()
	if err := k.CreateWithUID(id, st, node); err != nil {
		return uid.Nil, transput.ChannelID{}, err
	}
	if !cfg.LazyStart {
		st.Start()
	}
	return id, st.Writer(0).ID(), nil
}

// CounterSource registers a read-only source emitting n numbered
// lines ("line 0\n" ... ).  Benchmarks use it as a deterministic
// workload generator.
func CounterSource(k *kernel.Kernel, node netsim.NodeID, n int, cfg transput.ROStageConfig) (uid.UID, transput.ChannelID, error) {
	if cfg.Name == "" {
		cfg.Name = "counter-source"
	}
	st := transput.NewROStage(k, cfg, func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
		for i := 0; i < n; i++ {
			if err := outs[0].Put([]byte(fmt.Sprintf("line %d\n", i))); err != nil {
				return err
			}
		}
		return nil
	})
	id := k.NewUID()
	if err := k.CreateWithUID(id, st, node); err != nil {
		return uid.Nil, transput.ChannelID{}, err
	}
	if !cfg.LazyStart {
		st.Start()
	}
	return id, st.Writer(0).ID(), nil
}
