package analysis

import (
	"path/filepath"
	"testing"
)

// TestProtoExtractionRealTree proves the shape extraction actually
// reads the protocol out of the real transput package.  Without this,
// a matcher regression could silently extract nothing and the model
// would "prove" the default configuration instead of the tree.
func TestProtoExtractionRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	pkg := loadRealTransput(t)
	sh := extractProtoShapes(pkg)

	if sh.gatePos == 0 {
		t.Fatal("window gate (for active >= limit wait loop) not extracted")
	}
	if !sh.gateStrict {
		t.Error("gate extracted as non-strict; the Pusher collects while active >= limit")
	}
	if sh.limitPos == 0 {
		t.Fatal("credit-limit update not extracted")
	}
	if !sh.floorOne {
		t.Error("1+credits/batch floor not extracted")
	}
	if !sh.clampWin {
		t.Error("window clamp not extracted")
	}
	// The passive endpoints share one stream buffer: its waits are
	// waitItems, absorb's sequence and space waits (passive.go), and
	// ChannelWriter.put's admission and rendezvous waits (outport.go).
	if len(sh.waitLoops) < 5 {
		t.Errorf("extracted %d chanCore-family wait loops, want >= 5 (passive.go and outport.go)", len(sh.waitLoops))
	}
	for i, wl := range sh.waitLoops {
		if !wl.abortAware {
			t.Errorf("wait loop #%d extracted as not abort-aware; every real channel wait re-checks abortErr", i)
		}
	}
	// Every abort path (OpAbort, Cancel, CloseWithError, Retire,
	// OnDeactivate) goes through the one drop-and-broadcast abort.
	if len(sh.aborters) != 1 {
		t.Errorf("extracted %d abort writers, want exactly 1 (streamBuf.abortLocked in passive.go)", len(sh.aborters))
	}
	for _, ab := range sh.aborters {
		if !ab.drains || !ab.broadcasts {
			t.Errorf("abort writer extracted as drains=%v broadcasts=%v; all real aborters drain and broadcast", ab.drains, ab.broadcasts)
		}
	}
}

func loadRealTransput(t *testing.T) *Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := loader.Load("asymstream/internal/transput")
	if err != nil {
		t.Fatal(err)
	}
	pkg := prog.Package("asymstream/internal/transput")
	if pkg == nil {
		t.Fatal("transput package not loaded")
	}
	return pkg
}

// TestProtoModelSelfTest is the seeded-mutant gate at the PR bound,
// and at K=1: the paper's stop-and-wait is the same Pusher engine with
// a window of one, so its path is model-checked too.
func TestProtoModelSelfTest(t *testing.T) {
	for _, window := range []int{3, 1} {
		if err := ProtoModelSelfTest(window, 2, 0); err != nil {
			t.Fatalf("K=%d: %v", window, err)
		}
	}
}
