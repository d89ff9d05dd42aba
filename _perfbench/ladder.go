package main

import (
	"fmt"
	"runtime"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/stripemap"
	"asymstream/internal/transport"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// The ladder times each layer in isolation, through its public API,
// after the traced run's workloads: per rung, ns/op and allocs/op.
// Per-item counts from the traced run multiplied by these unit costs
// give the time the layers explain; the rest is the residual.

const rungBudget = 150 * time.Millisecond

// rung is one isolated probe's result.
type rung struct {
	ns, allocs float64
}

// timeOp runs op in rounds of 64 until rungBudget has elapsed (after a
// short warm-up) and returns the mean cost per call.
func timeOp(op func() error) (rung, error) {
	for i := 0; i < 256; i++ {
		if err := op(); err != nil {
			return rung{}, err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	start := time.Now()
	var n int64
	for time.Since(start) < rungBudget {
		for i := 0; i < 64; i++ {
			if err := op(); err != nil {
				return rung{}, err
			}
		}
		n += 64
	}
	el := time.Since(start)
	runtime.ReadMemStats(&ms)
	return rung{ns: float64(el.Nanoseconds()) / float64(n), allocs: float64(ms.Mallocs-m0) / float64(n)}, nil
}

// echoEject answers every invocation: a ChannelsReply for OpChannels
// (the control-op record that still rides the gob fallback across
// nodes), the request payload otherwise.
type echoEject struct{}

func (echoEject) EdenType() string { return "perfbench.echo" }

func (echoEject) Serve(inv *kernel.Invocation) {
	if inv.Op == transput.OpChannels {
		inv.Reply(&transput.ChannelsReply{})
		return
	}
	inv.Reply(inv.Payload)
}

// invokeRung times a kernel.Invoke round trip from an external caller
// on node 0 to an echo Eject on node `at`.
func invokeRung(k *kernel.Kernel, at netsim.NodeID, op string) (rung, error) {
	defer k.Shutdown()
	id, err := k.Create(echoEject{}, at)
	if err != nil {
		return rung{}, err
	}
	return timeOp(func() error {
		_, err := k.Invoke(uid.Nil, id, op, nil)
		return err
	})
}

// hopRung times a one-way hop on a link with no kernel: an echo of a
// registered record from node 0 to node 1 and back, halved.
func hopRung(link netsim.Link) (rung, error) {
	defer link.Close()
	req := &transput.TransferRequest{Channel: transput.Chan(1), Max: 16}
	rep := &transput.DeliverReply{Status: transput.StatusOK, Credits: 64}
	r, err := timeOp(func() error {
		if _, _, err := link.Transmit(0, 1, req); err != nil {
			return err
		}
		_, _, err := link.Transmit(1, 0, rep)
		return err
	})
	r.ns /= 2
	r.allocs /= 2
	return r, err
}

// codecRecords are the records the system sends, by ladder name.
func codecRecords() []struct {
	name string
	v    any
} {
	items := func(k int) [][]byte {
		out := make([][]byte, k)
		for i := range out {
			out[i] = makeItem(1, 0, uint64(i), 64, noStamp)
		}
		return out
	}
	return []struct {
		name string
		v    any
	}{
		{"transfer_req", &transput.TransferRequest{Channel: transput.Chan(1), Max: 16}},
		{"transfer_reply_k1", &transput.TransferReply{Items: items(1), Base: 1 << 20}},
		{"transfer_reply_k16", &transput.TransferReply{Items: items(16), Base: 1 << 20}},
		{"deliver_k16", &transput.DeliverRequest{Channel: transput.Chan(1), Items: items(16), Seq: 7}},
		{"control_gob", &transput.ChannelsReply{Channels: []transput.ChannelAdvert{{Name: "Output", ID: transput.Chan(1), Dir: "out"}}}},
	}
}

// runLadder runs every rung and adds its ns/op and allocs/op to layer
// under the metric names of the layer table.
func runLadder(layer map[string]float64) error {
	set := func(name string, r rung) {
		ns, allocs := rungMetrics(name)
		layer[ns] = r.ns
		layer[allocs] = r.allocs
	}

	r, err := invokeRung(kernel.New(kernel.Config{}), 0, "perfbench.Echo")
	if err != nil {
		return fmt.Errorf("ladder invoke_local: %w", err)
	}
	set("kernel.invoke_local", r)

	k := kernel.New(kernel.Config{Net: netsim.Config{Nodes: 2, EncodePayloads: true}})
	if r, err = invokeRung(k, 1, transput.OpChannels); err != nil {
		return fmt.Errorf("ladder invoke_cross netsim: %w", err)
	}
	set("kernel.invoke_cross:netsim", r)

	if k, err = transput.NewTransportKernel(kernel.Config{Net: netsim.Config{Nodes: 2}}, transput.TransportUnix); err != nil {
		return fmt.Errorf("ladder invoke_cross unix: %w", err)
	}
	if r, err = invokeRung(k, 1, transput.OpChannels); err != nil {
		return fmt.Errorf("ladder invoke_cross unix: %w", err)
	}
	set("kernel.invoke_cross:unix", r)

	if r, err = hopRung(netsim.New(netsim.Config{Nodes: 2, EncodePayloads: true}, nil)); err != nil {
		return fmt.Errorf("ladder netsim hop: %w", err)
	}
	set("netsim.hop", r)
	sock, err := transport.NewSocketNetwork(transport.KindUnix, 2)
	if err != nil {
		return fmt.Errorf("ladder unix hop: %w", err)
	}
	if r, err = hopRung(sock); err != nil {
		return fmt.Errorf("ladder unix hop: %w", err)
	}
	set("transport.hop:unix", r)

	for _, rec := range codecRecords() {
		enc, err := wire.Append(nil, rec.v)
		if err != nil {
			return fmt.Errorf("ladder encode %s: %w", rec.name, err)
		}
		buf := make([]byte, 0, 2*len(enc))
		if r, err = timeOp(func() error {
			var err error
			buf, err = wire.Append(buf[:0], rec.v)
			return err
		}); err != nil {
			return fmt.Errorf("ladder encode %s: %w", rec.name, err)
		}
		layer["wire.encode_ns."+rec.name] = r.ns
		layer["wire.encode_allocs."+rec.name] = r.allocs
		if r, err = timeOp(func() error {
			_, _, err := wire.Decode(enc)
			return err
		}); err != nil {
			return fmt.Errorf("ladder decode %s: %w", rec.name, err)
		}
		layer["wire.decode_ns."+rec.name] = r.ns
		layer["wire.decode_allocs."+rec.name] = r.allocs
		layer["wire.frame_bytes."+rec.name] = float64(len(enc))
	}

	slab := wire.NewSlab(nil, 0)
	if r, err = timeOp(func() error {
		wire.Release(slab.Alloc(64))
		return nil
	}); err != nil {
		return err
	}
	slab.Close()
	set("wire.slab_cycle", r)

	// The stripemap rungs run at the gateway's table population: both
	// ports' channels, keyed by capability UID as the tables are.
	gen := uid.NewGenerator()
	m := stripemap.New[uid.UID, *int](128, uid.UID.Hash, nil)
	keys := make([]uid.UID, 2*gwPairs)
	v := new(int)
	for i := range keys {
		keys[i] = gen.New()
		m.Store(keys[i], v)
	}
	spare := make([]uid.UID, 4096)
	for i := range spare {
		spare[i] = gen.New()
	}
	var i int
	if r, err = timeOp(func() error {
		i++
		if _, ok := m.Load(keys[(i*7919)%len(keys)]); !ok {
			return fmt.Errorf("stripemap lost a key")
		}
		return nil
	}); err != nil {
		return err
	}
	set("stripemap.load", r)
	if r, err = timeOp(func() error {
		i++
		k := spare[i%len(spare)]
		m.Store(k, v)
		m.Delete(k)
		return nil
	}); err != nil {
		return err
	}
	set("stripemap.store_delete", r)

	if r, err = timeOp(func() error { gen.New(); return nil }); err != nil {
		return err
	}
	set("uid.mint", r)
	return nil
}

// filterFloor runs a workload's filter chain as plain function calls
// over its generated inputs: the single-threaded floor per item.
func filterFloor(seed uint64, size sizeFunc, fns []stageFn) float64 {
	if len(fns) == 0 {
		return 0
	}
	const n = 4096
	src := make([][]byte, n)
	for i := range src {
		src[i] = makeItem(seed, 0, uint64(i), size(seed, uint64(i)), noStamp)
	}
	work := make([]byte, 8<<10)
	var i int
	r, _ := timeOp(func() error {
		s := src[i%n]
		i++
		b := work[:len(s)]
		copy(b, s)
		for _, f := range fns {
			f(b)
		}
		return nil
	})
	return r.ns
}
