package sac

import (
	"math/rand"
	"testing"

	"repro/internal/transport"
)

// The SACRoundAllocs pair is the allocation contract of Scratch reuse:
// identical 8-peer k-out-of-n rounds, one variant on a fresh Scratch
// per round (Config.Scratch nil, so Run makes its own) and one reusing
// a warmed Scratch.
// `make bench-check` gates allocs/op of the pooled variant at ≤ 0.5×
// the fresh variant (cmd/p2pfl-benchjson -pairs
// 'allocs:SACRoundAllocsPooled=SACRoundAllocsFresh@0.5'). Both
// variants pay the same per-round mesh and message costs, so the cut
// comes entirely from the engine's share blocks, subtotal vectors and
// map containers.
func benchmarkSACRoundAllocs(b *testing.B, sc *Scratch) {
	const roundsPerOp = 4
	r := rand.New(rand.NewSource(29))
	models := randModels(r, 8, 1024)
	counter := transport.NewCounter() // shared: counter map growth is not the contract
	oneRound := func() {
		mesh := transport.NewMesh(8, counter)
		cfg := Config{N: 8, K: 6, Leader: 0, Mode: ModeLeader, Rng: r, Scratch: sc}
		if _, err := Run(mesh, cfg, models, nil); err != nil {
			b.Fatal(err)
		}
	}
	for w := 0; w < roundsPerOp; w++ {
		oneRound() // warm: scratch provisioned, counter kinds interned
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < roundsPerOp; j++ {
			oneRound()
		}
	}
}

func BenchmarkSACRoundAllocsFresh(b *testing.B)  { benchmarkSACRoundAllocs(b, nil) }
func BenchmarkSACRoundAllocsPooled(b *testing.B) { benchmarkSACRoundAllocs(b, &Scratch{}) }
