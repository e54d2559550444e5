package core

import (
	"math/rand"
	"testing"

	"repro/internal/sac"
	"repro/internal/tensor"
)

// withParallelism runs fn at pool budget n and restores the old budget.
func withParallelism(n int, fn func()) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(n)
	fn()
}

func TestParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	models := randModels(r, 20, 2*tensor.ParallelVecFloor+3)
	run := func(budget int) (res *RoundResult) {
		withParallelism(budget, func() {
			sys, err := NewSystem(Config{Sizes: []int{5, 5, 5, 5}, K: []int{3}}, rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			if res, err = sys.Aggregate(models, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		return res
	}
	seq, par := run(1), run(4)
	// Coordinate panels never change a coordinate's summation order, so
	// the fan-out is bit-identical to the inline run.
	if !sameBits(seq.Global, par.Global) {
		t.Fatal("budget 4 changed the global model")
	}
	if seq.Bytes != par.Bytes {
		t.Fatalf("bytes differ: %d vs %d", seq.Bytes, par.Bytes)
	}
}

func TestParallelWithCrashes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	models := randModels(r, 9, tensor.ParallelVecFloor+8)
	sys, err := NewSystem(Config{Sizes: []int{3, 3, 3}, K: []int{2}}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	crash := map[int]sac.CrashPlan{
		0: {2: sac.AfterShares},
		2: {1: sac.AfterShares},
	}
	var res *RoundResult
	withParallelism(4, func() { res, err = sys.Aggregate(models, nil, crash) })
	if err != nil {
		t.Fatal(err)
	}
	// AfterShares dropouts still contribute their models.
	if d := maxAbsDiff(res.Global, mean(models)); d > 1e-9 {
		t.Fatalf("avg off by %v", d)
	}
}

// BenchmarkAggregateSequential runs the aggregation at pool budget 1;
// BenchmarkAggregateParallel at the default budget.
func BenchmarkAggregateSequential(b *testing.B) {
	withParallelism(1, func() { benchAggregate(b) })
}

func BenchmarkAggregateParallel(b *testing.B) {
	benchAggregate(b)
}

func benchAggregate(b *testing.B) {
	b.Helper()
	r := rand.New(rand.NewSource(5))
	const dim = 1 << 14
	models := randModels(r, 30, dim)
	sys, err := NewSystem(Config{Sizes: []int{5, 5, 5, 5, 5, 5}, K: []int{3}}, rand.New(rand.NewSource(6)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Aggregate(models, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
