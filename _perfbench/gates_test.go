package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestReferenceDigestCatchesCorruption(t *testing.T) {
	const n = 100
	ref := referenceDigest(3, 0, n, paperSize, func(int64) int64 { return noStamp }, chainFns)
	sink := func(mutate func(i int64, b []byte) []byte) string {
		d := newDigest()
		for i := int64(0); i < n; i++ {
			b := makeItem(3, 0, uint64(i), paperSize(3, uint64(i)), noStamp)
			for _, f := range chainFns {
				f(b)
			}
			if b = mutate(i, b); b != nil {
				d.add(b)
			}
		}
		return d.sum()
	}
	if got := sink(func(_ int64, b []byte) []byte { return b }); got != ref {
		t.Fatal("an intact stream does not match its reference")
	}
	cases := map[string]func(int64, []byte) []byte{
		"flipped byte": func(i int64, b []byte) []byte {
			if i == 50 {
				b[len(b)-1] ^= 1
			}
			return b
		},
		"dropped item": func(i int64, b []byte) []byte {
			if i == 50 {
				return nil
			}
			return b
		},
		"truncated item": func(i int64, b []byte) []byte {
			if i == 50 {
				return b[:len(b)-1]
			}
			return b
		},
	}
	for name, mutate := range cases {
		if sink(mutate) == ref {
			t.Errorf("%s: digest still matches the reference", name)
		}
	}
}

func TestSettleFailsEveryItemOnAFailedGate(t *testing.T) {
	r := newResult("x")
	r.attempted = 1000
	r.check("ok", true, "")
	r.settle()
	if r.failed != 0 || r.e2e["error_ratio"] != 0 {
		t.Fatalf("passing run: failed=%d error_ratio=%v", r.failed, r.e2e["error_ratio"])
	}
	r.check("count", false, "sink received 999 of 1000 items")
	r.settle()
	if r.correct() || r.failed != 1000 || r.e2e["error_ratio"] != 1 {
		t.Errorf("failed gate: correct=%v failed=%d error_ratio=%v", r.correct(), r.failed, r.e2e["error_ratio"])
	}
}

// failedGates lists the names of r's failing gates.
func failedGates(r *result) []string {
	var out []string
	for _, g := range r.gates {
		if !g.ok {
			out = append(out, g.name)
		}
	}
	return out
}

// startTestPipe sets up a real paper-b1 instance (warm-up only).
func startTestPipe(t *testing.T, spec *pipeSpec) *pipeInst {
	t.Helper()
	in, err := startPipe(spec, 11, nil, 0)
	if err != nil {
		if in != nil {
			in.finish(newResult("cleanup"), nil)
		}
		t.Fatal(err)
	}
	return in
}

func TestPipelineGatesPass(t *testing.T) {
	r := newResult(paperB1.name)
	startTestPipe(t, paperB1).finish(r, nil)
	if bad := failedGates(r); len(bad) != 0 {
		t.Fatalf("healthy instance failed %v: %+v", bad, r.gates)
	}
}

func TestPipelineGatesCatchCorruptSink(t *testing.T) {
	in := startTestPipe(t, paperB1)
	in.release()
	if err := waitTimeout(in.p.Wait, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// One extra item in the sink digest: count and content both wrong.
	in.dig.add(makeItem(11, 0, 0, 64, noStamp))
	r := newResult(paperB1.name)
	in.finish(r, nil)
	if got := strings.Join(failedGates(r), " "); got != "paper-b1.digest" {
		t.Errorf("failed gates = %q, want the digest gate", got)
	}
}

func TestPipelineGatesCatchWrongCount(t *testing.T) {
	in := startTestPipe(t, paperB1)
	in.release()
	if err := waitTimeout(in.p.Wait, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	in.emitted.Add(2) // the source claims two items more than arrived
	r := newResult(paperB1.name)
	in.finish(r, nil)
	got := strings.Join(failedGates(r), " ")
	for _, want := range []string{"paper-b1.count", "paper-b1.digest", "paper-b1.invocations"} {
		if !strings.Contains(got, want) {
			t.Errorf("failed gates = %q, missing %s", got, want)
		}
	}
}

func TestPaperCountGateCatchesBatching(t *testing.T) {
	spec := *paperB1
	spec.opt.Batch = 4 // no longer one datum per invocation
	r := newResult(spec.name)
	startTestPipe(t, &spec).finish(r, nil)
	if got := strings.Join(failedGates(r), " "); got != "paper-b1.invocations" {
		t.Errorf("failed gates = %q, want only the invocation-count gate", got)
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, e2eDefs}, {"per_layer", spec.PerLayer, layerDefs()}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, the benchmark reports %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d] = %+v, the benchmark reports %+v", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
}
