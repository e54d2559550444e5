package core

import (
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/sac"
)

// Reconfigure is the round-boundary half of the continuous-churn story:
// after a membership change the next round must aggregate exactly under
// the new geometry, and a rejected geometry must leave the system on
// the old one.

func TestReconfigureBetweenRounds(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	sys, err := NewSystem(Config{Sizes: []int{3, 3}}, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	models := randModels(r, 6, 8)
	res, err := sys.Aggregate(models, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("pre-churn round off by %v", d)
	}

	// A join grows subgroup 0, a leave shrinks subgroup 1, and a whole
	// new subgroup appears — all between rounds.
	if err := sys.Reconfigure([]int{4, 2, 3}, []int{3, 2, 2}); err != nil {
		t.Fatal(err)
	}
	cfg := sys.Config()
	if got := cfg.NumPeers(); got != 9 {
		t.Fatalf("NumPeers = %d after reconfigure, want 9", got)
	}
	models = randModels(r, 9, 8)
	res, err = sys.Aggregate(models, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("post-churn round off by %v", d)
	}

	// Shrinking below the current scratch count works too.
	if err := sys.Reconfigure([]int{5}, nil); err != nil {
		t.Fatal(err)
	}
	models = randModels(r, 5, 8)
	res, err = sys.Aggregate(models, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("shrunk round off by %v", d)
	}
}

func TestReconfigureRejectsBadGeometry(t *testing.T) {
	sys, err := NewSystem(Config{Sizes: []int{3, 3}, K: []int{2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2][]int{
		{{}, nil},           // no subgroups
		{{3, 0}, nil},       // zero-size subgroup
		{{3, 3, 3}, {2, 2}}, // threshold count mismatch
	} {
		if err := sys.Reconfigure(bad[0], bad[1]); err == nil {
			t.Fatalf("want error for sizes=%v k=%v", bad[0], bad[1])
		}
	}
	// The failed attempts left the old configuration in place.
	cfg := sys.Config()
	if len(cfg.Sizes) != 2 || cfg.Sizes[0] != 3 || len(cfg.K) != 1 || cfg.K[0] != 2 {
		t.Fatalf("config mutated by rejected reconfigure: %+v", cfg)
	}
	models := randModels(rand.New(rand.NewSource(33)), 6, 4)
	if _, err := sys.Aggregate(models, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReconfigureNewKReusesScratch: a Reconfigure that keeps every
// subgroup size but changes K keeps the warmed per-subgroup SAC
// scratches, whose replica cache must follow the new threshold. Each
// round — K = 7, 5, 7 on two subgroups of 8, one peer per subgroup
// crashing after its shares — must equal a system built fresh for that
// round bit for bit, charge exactly the k-of-n closed form plus one
// 8-byte index per recovery request, and recover both crashed peers.
func TestReconfigureNewKReusesScratch(t *testing.T) {
	sizes := []int{8, 8}
	const dim = 16
	models := randModels(rand.New(rand.NewSource(34)), 16, dim)
	crash := map[int]sac.CrashPlan{0: {7: sac.AfterShares}, 1: {7: sac.AfterShares}}
	sys, err := NewSystem(Config{Sizes: sizes, K: []int{7}}, rand.New(rand.NewSource(35)))
	if err != nil {
		t.Fatal(err)
	}
	// Fresh twins draw from one rng shared across rounds, so each twin
	// starts from the rng state the reused system has at that round.
	twinRng := rand.New(rand.NewSource(35))
	for round, k := range []int{7, 5, 7} {
		if err := sys.Reconfigure(sizes, []int{k}); err != nil {
			t.Fatal(err)
		}
		twin, err := NewSystem(Config{Sizes: sizes, K: []int{k}}, twinRng)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Aggregate(models, nil, crash)
		if err != nil {
			t.Fatalf("round %d (K=%d) fresh: %v", round, k, err)
		}
		rec0 := sys.Counter().Messages(sac.KindRecoveryReq)
		got, err := sys.Aggregate(models, nil, crash)
		if err != nil {
			t.Fatalf("round %d (K=%d): %v", round, k, err)
		}
		if !equalF64s(got.Global, want.Global) || got.Bytes != want.Bytes {
			t.Fatalf("round %d (K=%d): reused scratch diverged from a fresh system (bytes %d vs %d)",
				round, k, got.Bytes, want.Bytes)
		}
		if d := maxAbsDiff(got.Global, mean(models)); d > 1e-9 {
			t.Fatalf("round %d (K=%d): global off by %v", round, k, d)
		}
		rec := sys.Counter().Messages(sac.KindRecoveryReq) - rec0
		if rec != 2 {
			t.Fatalf("round %d (K=%d): %d recovery requests, want one per subgroup", round, k, rec)
		}
		units, err := costmodel.TwoLayerUnevenKNUnits(sizes, k)
		if err != nil {
			t.Fatal(err)
		}
		if wantBytes := units*8*dim + 8*rec; got.Bytes != wantBytes {
			t.Fatalf("round %d (K=%d): %d bytes, closed form %d", round, k, got.Bytes, wantBytes)
		}
	}
}
