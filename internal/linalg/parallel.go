// Parallel runtime of the linalg package: a small shared worker pool plus
// blocked kernels with deterministic reduction order.
//
// The determinism contract: results are bit-identical at any worker count,
// including the sequential path. Three mechanisms deliver it:
//
//   - Fixed block partition. Every reduction splits its input into blocks of
//     exactly reduceBlock elements (the last block ragged). The partition
//     depends only on the vector length, never on the worker count, so the
//     partial sums are the same numbers no matter who computes them.
//   - Fixed-order tree combine. Block partials are folded pairwise in block
//     order (parts[0]+parts[1], parts[2]+parts[3], ...), a schedule that is a
//     pure function of the block count. Workers race only to *fill* the
//     partial slots, never to combine them.
//   - Owner-computes writes. Elementwise kernels and the blocked
//     Laplacian.Apply partition the *output* index space; each entry is
//     written by exactly one worker with the same floating-point operation
//     sequence as the sequential loop, so no merge step exists at all.
//
// A nil *Pool is the sequential runtime: every kernel method works on a nil
// receiver and runs the plain loop. Workers=1 therefore restores today's
// exact code path, and because vectors shorter than reduceBlock occupy a
// single block, small-n results (everything the differential and fault
// suites pin) are bit-for-bit the historical left-to-right sums even for
// the blocked kernels.
package linalg

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// reduceBlock is the fixed reduction block size, in elements. It is part of
// the numeric contract: changing it changes the bits of blocked reductions
// on vectors longer than one block. 4096 float64 reads are 32 KiB — half an
// L1d — so a block is also the natural unit of per-worker cache residency.
const reduceBlock = 4096

// Pool is a reusable team of workers executing blocked loops. The zero
// of the type is not used; pools come from SharedPool. A nil *Pool is valid
// everywhere and means "run sequentially on the caller".
//
// Pools are safe for concurrent use from multiple goroutines: each ForBlocks
// call carries its own atomic cursor and wait group, and the persistent
// workers pull one closure per call. Nested ForBlocks calls (a pooled kernel
// inside a pooled solve) cannot deadlock: when the persistent workers are
// busy the dispatch falls back to fresh goroutines, and the caller always
// participates in its own loop.
type Pool struct {
	workers int
	tasks   chan func()
}

// sharedPools registers one pool per worker count for the whole process, so
// sessions and solvers that resolve the same Workers knob share one team of
// goroutines instead of leaking a pool per build.
var (
	sharedMu    sync.Mutex
	sharedPools = map[int]*Pool{}
)

// ResolveWorkers maps the user-facing Workers knob to an effective worker
// count: 0 (or negative) means GOMAXPROCS, 1 means sequential, and any
// other value is taken as given.
func ResolveWorkers(workers int) int {
	if workers == 1 {
		return 1
	}
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// SharedPool returns the process-wide pool for the given Workers knob,
// creating it on first use. A resolved count of 1 returns nil — the
// sequential runtime — so callers thread the result unconditionally.
func SharedPool(workers int) *Pool {
	w := ResolveWorkers(workers)
	if w <= 1 {
		return nil
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if p, ok := sharedPools[w]; ok {
		return p
	}
	p := &Pool{workers: w, tasks: make(chan func())}
	for i := 1; i < w; i++ {
		go func() {
			for task := range p.tasks {
				task()
			}
		}()
	}
	sharedPools[w] = p
	return p
}

// Workers returns the pool's worker count (1 for the nil, sequential pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// ForBlocks runs fn(b) for every block index b in [0, numBlocks). Blocks are
// claimed from an atomic cursor, so the assignment of blocks to workers is
// racy by design — fn must make that harmless by writing only state owned by
// block b (the owner-computes rule). The caller participates as a worker and
// the call returns when every block is done.
func (p *Pool) ForBlocks(numBlocks int, fn func(b int)) {
	if p == nil || p.workers <= 1 || numBlocks <= 1 {
		for b := 0; b < numBlocks; b++ {
			fn(b)
		}
		return
	}
	dispatchCount()
	k := p.workers
	if k > numBlocks {
		k = numBlocks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	run := func() {
		defer wg.Done()
		for {
			b := int(next.Add(1)) - 1
			if b >= numBlocks {
				return
			}
			fn(b)
		}
	}
	wg.Add(k)
	for i := 1; i < k; i++ {
		select {
		case p.tasks <- run:
		default:
			// Every persistent worker is busy (nested parallelism, or
			// concurrent sessions sharing the pool): spawn instead of
			// queueing behind work that may itself be waiting on us.
			go run()
		}
	}
	run()
	wg.Wait()
}

// Range runs fn(lo, hi) over a fixed partition of [0, n) into reduceBlock
// spans. It is the elementwise counterpart of the blocked reductions: the
// partition depends only on n, and each index is written by exactly one
// invocation.
func (p *Pool) Range(n int, fn func(lo, hi int)) {
	nb := reduceBlocks(n)
	if nb <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	p.ForBlocks(nb, func(b int) {
		lo, hi := blockSpan(n, b)
		fn(lo, hi)
	})
}

// reduceBlocks returns the number of fixed-size blocks covering n elements.
func reduceBlocks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + reduceBlock - 1) / reduceBlock
}

// blockSpan returns the half-open index range of block b.
func blockSpan(n, b int) (lo, hi int) {
	lo = b * reduceBlock
	hi = lo + reduceBlock
	if hi > n {
		hi = n
	}
	return lo, hi
}

// treeReduce folds block partials pairwise in block order:
// (p0+p1), (p2+p3), ... then recursively over the halved slice. The schedule
// is a pure function of len(parts), so the result is bit-identical no matter
// how many workers filled the slots. It consumes parts as scratch.
func treeReduce(parts []float64) float64 {
	if len(parts) == 0 {
		return 0
	}
	for n := len(parts); n > 1; {
		half := (n + 1) / 2
		for i := 0; i < n/2; i++ {
			parts[i] = parts[2*i] + parts[2*i+1]
		}
		if n%2 == 1 {
			parts[n/2] = parts[n-1]
		}
		n = half
	}
	return parts[0]
}

// partsPool recycles block-partial slices so pooled reductions allocate only
// on growth.
var partsPool = sync.Pool{New: func() any { s := make([]float64, 0, 64); return &s }}

func getParts(n int) *[]float64 {
	sp := partsPool.Get().(*[]float64)
	if cap(*sp) < n {
		*sp = make([]float64, n)
	}
	*sp = (*sp)[:n]
	return sp
}

// Dot returns the inner product of v and w under the pool's blocked,
// fixed-order reduction. This is the single numeric definition of a dot
// product in the package: Vec.Dot delegates here with a nil pool.
func (p *Pool) Dot(v, w Vec) float64 {
	kernelCalls(kernelDot)
	n := len(v)
	if n <= reduceBlock {
		var s float64
		for i := range v {
			s += v[i] * w[i]
		}
		return s
	}
	nb := reduceBlocks(n)
	sp := getParts(nb)
	parts := *sp
	p.ForBlocks(nb, func(b int) {
		lo, hi := blockSpan(n, b)
		var s float64
		for i := lo; i < hi; i++ {
			s += v[i] * w[i]
		}
		parts[b] = s
	})
	r := treeReduce(parts)
	partsPool.Put(sp)
	return r
}

// Norm2 returns the Euclidean norm of v via the pool's blocked Dot.
func (p *Pool) Norm2(v Vec) float64 { return math.Sqrt(p.Dot(v, v)) }

// Sum returns the entry sum of v under the blocked, fixed-order reduction.
func (p *Pool) Sum(v Vec) float64 {
	kernelCalls(kernelSum)
	n := len(v)
	if n <= reduceBlock {
		var s float64
		for _, x := range v {
			s += x
		}
		return s
	}
	nb := reduceBlocks(n)
	sp := getParts(nb)
	parts := *sp
	p.ForBlocks(nb, func(b int) {
		lo, hi := blockSpan(n, b)
		var s float64
		for i := lo; i < hi; i++ {
			s += v[i]
		}
		parts[b] = s
	})
	r := treeReduce(parts)
	partsPool.Put(sp)
	return r
}

// AXPY sets v = v + a*w with the output range partitioned across workers.
// Elementwise writes are owner-computes, so the result is trivially
// bit-identical to the sequential loop.
func (p *Pool) AXPY(v Vec, a float64, w Vec) {
	kernelCalls(kernelAXPY)
	if p == nil || len(v) <= reduceBlock {
		for i := range v {
			v[i] += a * w[i]
		}
		return
	}
	p.Range(len(v), func(lo, hi int) {
		vs, ws := v[lo:hi], w[lo:hi]
		for i := range vs {
			vs[i] += a * ws[i]
		}
	})
}

// Scale sets v = a*v with the output range partitioned across workers.
func (p *Pool) Scale(v Vec, a float64) {
	kernelCalls(kernelScale)
	if p == nil || len(v) <= reduceBlock {
		for i := range v {
			v[i] *= a
		}
		return
	}
	p.Range(len(v), func(lo, hi int) {
		vs := v[lo:hi]
		for i := range vs {
			vs[i] *= a
		}
	})
}

// RemoveMean subtracts the mean from every entry of v: a blocked Sum for
// the mean, then an owner-computes subtraction sweep.
func (p *Pool) RemoveMean(v Vec) {
	kernelCalls(kernelRemoveMean)
	if len(v) == 0 {
		return
	}
	m := p.Sum(v) / float64(len(v))
	if p == nil || len(v) <= reduceBlock {
		for i := range v {
			v[i] -= m
		}
		return
	}
	p.Range(len(v), func(lo, hi int) {
		vs := v[lo:hi]
		for i := range vs {
			vs[i] -= m
		}
	})
}
