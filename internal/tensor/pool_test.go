package tensor

import (
	"sync"
	"testing"
)

// countKernel adds 1 to every element of its rows, fanning each panel
// out once more through ParallelRows so nested borrowing is exercised.
type countKernel struct{ hit []int32 }

func (k *countKernel) Rows(lo, hi int) {
	ParallelRows(hi-lo, func(a, b int) {
		for i := lo + a; i < lo+b; i++ {
			k.hit[i]++
		}
	})
}

// TestParallelVecConcurrentCallers runs nested fan-outs from several
// goroutines at once while the budget changes underneath them: every
// element must be visited exactly once per call, and nothing may
// deadlock (run under -race).
func TestParallelVecConcurrentCallers(t *testing.T) {
	forceParallelism(t, 3)
	const callers, calls = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for n := 1; ; n = n%4 + 1 {
			select {
			case <-stop:
				return
			default:
				SetParallelism(n)
			}
		}
	}()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			k := &countKernel{hit: make([]int32, n)}
			for call := 1; call <= calls; call++ {
				ParallelVec(n, k)
				for i, h := range k.hit {
					if h != int32(call) {
						t.Errorf("n=%d call %d: element %d visited %d times", n, call, i, h)
						return
					}
				}
			}
		}(ParallelVecFloor + 1000*c + 7)
	}
	wg.Wait()
	close(stop)
}

// addKernel adds 1 to every element of its rows.
type addKernel struct{ x []float64 }

func (k *addKernel) Rows(lo, hi int) {
	for i := lo; i < hi; i++ {
		k.x[i]++
	}
}

// TestParallelVecAllocationFree pins that neither the inline pass below
// the floor nor the fan-out above it allocates.
func TestParallelVecAllocationFree(t *testing.T) {
	forceParallelism(t, 4)
	for _, n := range []int{ParallelVecFloor - 1, 4 * ParallelVecFloor} {
		k := &addKernel{x: make([]float64, n)}
		if allocs := testing.AllocsPerRun(20, func() { ParallelVec(n, k) }); allocs != 0 {
			t.Fatalf("n=%d: pass allocated %v times", n, allocs)
		}
		for i, v := range k.x {
			if v != 21 { // AllocsPerRun adds one warm-up call
				t.Fatalf("n=%d: element %d = %v, want 21", n, i, v)
			}
		}
	}
}
