package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package keeps one bounded worker pool shared by every parallel
// kernel. Parallelism is a token budget over a set of parked helper
// goroutines: a kernel that wants to fan out borrows as many spare
// helpers as it can without blocking, hands each one a panel, and
// computes the first panel itself. Under nesting (parallel client
// training above parallel matmuls) inner kernels simply find no spare
// helpers and run serially, so total compute goroutines stay bounded by
// the budget and the pool can never deadlock: at most budget−1 helpers
// are ever lent out and at least that many are parked, so a borrowed
// helper is always free or about to be.
//
// Work splitting is by disjoint output-row panels and every kernel
// accumulates each output element in the same (ascending shared-index)
// order as its serial counterpart, so results are bit-for-bit identical
// whatever the token budget or the number of helpers actually borrowed.
//
// Handing a panel to a parked helper allocates nothing: a kernel is a
// RowKernel value (usually a pointer to a caller-owned struct) and the
// join counter comes from a FreeList.

// RowKernel computes the independent output rows [lo, hi) of a parallel
// kernel. Rows must only write state derived from its own range, and its
// per-row results must not depend on how the range was split.
type RowKernel interface {
	Rows(lo, hi int)
}

// rowFunc adapts a closure to RowKernel.
type rowFunc func(lo, hi int)

func (f rowFunc) Rows(lo, hi int) { f(lo, hi) }

// panel is one borrowed helper's share of a fan-out.
type panel struct {
	k      RowKernel
	lo, hi int
	done   *sync.WaitGroup
}

var (
	budget   atomic.Int64 // SetParallelism's n
	borrowed atomic.Int64 // helpers currently lent out, ≤ budget−1 ≤ helpers
	panels   = make(chan panel)

	// Helpers park for the life of the process, one per unit of the
	// largest budget ever set: a goroutine spawned per fan-out would
	// allocate its closure every time.
	helpersMu sync.Mutex
	helpers   int

	joins FreeList[sync.WaitGroup]
)

// FreeList is a mutex-guarded stack of reusable objects for kernels that
// lend caller state to pool helpers. Unlike sync.Pool it is never
// emptied by a GC nor split per P, so steady-state reuse allocates
// nothing. The zero value is ready to use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get pops a spare object, or allocates a zero one when none is left.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	t := l.free[n-1]
	l.free = l.free[:n-1]
	return t
}

// Put returns t for reuse; the caller must not touch it afterwards.
func (l *FreeList[T]) Put(t *T) {
	l.mu.Lock()
	l.free = append(l.free, t)
	l.mu.Unlock()
}

func init() {
	SetParallelism(runtime.GOMAXPROCS(0))
}

// SetParallelism bounds the number of goroutines (including the caller)
// that a parallel kernel may use; n < 1 is treated as 1 (fully serial).
// The default is GOMAXPROCS at package initialization. The budget is
// global: concurrent kernels share it.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	// Park the helpers before publishing the budget, so the number lent
	// out can never exceed the number parked.
	helpersMu.Lock()
	for ; helpers < n-1; helpers++ {
		go helper()
	}
	helpersMu.Unlock()
	budget.Store(int64(n))
}

// Parallelism returns the current worker budget.
func Parallelism() int {
	return int(budget.Load())
}

func helper() {
	for p := range panels {
		p.k.Rows(p.lo, p.hi)
		borrowed.Add(-1)
		p.done.Done()
	}
}

// borrow lends out up to want helpers without blocking and returns how
// many it got.
func borrow(want int) int {
	for {
		cur := borrowed.Load()
		free := budget.Load() - 1 - cur
		if free <= 0 {
			return 0
		}
		if int64(want) < free {
			free = int64(want)
		}
		if borrowed.CompareAndSwap(cur, cur+free) {
			return int(free)
		}
	}
}

// ParallelVecFloor is the vector length below which ParallelVec runs its
// kernel inline. Handing a panel to a helper costs about 1 µs; on a
// 2-vCPU Xeon a five-source sum breaks even at about 2,048 coordinates,
// and the floor sits at twice that (DESIGN.md §7).
const ParallelVecFloor = 1 << 12

// VecBlock is the block length (8 KiB of float64) the vector kernels of
// the aggregation data plane work in: one output block stays in L1
// while every input streams through it.
const VecBlock = 1024

// ParallelVec runs k over the coordinates [0, n) of a dim-long vector
// pass: inline on the caller's goroutine below ParallelVecFloor or with
// a serial budget, otherwise split into coordinate panels like
// ParallelRows. k must compute each coordinate independently of the
// split, so the result is bit-identical at any budget.
func ParallelVec(n int, k RowKernel) {
	if n < ParallelVecFloor {
		k.Rows(0, n)
		return
	}
	parallelFor(n, 0, k)
}

// ParallelRows runs fn over [0, rows) split into contiguous panels, one
// per helper the caller manages to borrow from the shared pool (plus the
// caller itself); with no spare helpers — or a single row — it degrades
// to fn(0, rows) inline. It serves the matmul kernels and out-of-package
// ones (compress quantizers): fn must only write state derived from its
// own row range, and its per-row results must not depend on how
// [0, rows) was split.
func ParallelRows(rows int, fn func(lo, hi int)) {
	parallelFor(rows, 0, rowFunc(fn))
}

// ParallelRowsN is ParallelRows with an explicit worker ceiling: at most
// maxWorkers goroutines (including the caller) touch the range, however
// large the shared budget is. maxWorkers < 1 means "no extra ceiling".
// Callers whose fn serializes on per-worker state (the multilayer
// engine's pooled mesh/scratch contexts) use it to bound contention
// without shrinking the global budget for everyone else.
func ParallelRowsN(rows, maxWorkers int, fn func(lo, hi int)) {
	parallelFor(rows, maxWorkers, rowFunc(fn))
}

func parallelFor(rows, maxWorkers int, k RowKernel) {
	want := int(budget.Load()) - 1
	if maxWorkers > 0 && maxWorkers-1 < want {
		want = maxWorkers - 1
	}
	if want > rows-1 {
		want = rows - 1
	}
	got := 0
	if want > 0 {
		got = borrow(want)
	}
	if got == 0 {
		k.Rows(0, rows)
		return
	}
	chunks := got + 1
	done := joins.Get()
	done.Add(got)
	for c := 1; c < chunks; c++ {
		panels <- panel{k: k, lo: c * rows / chunks, hi: (c + 1) * rows / chunks, done: done}
	}
	k.Rows(0, rows/chunks)
	done.Wait()
	joins.Put(done)
}
