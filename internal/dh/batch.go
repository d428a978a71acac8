package dh

import (
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
)

// ExpBatch fans independent modular exponentiations across a worker pool.
// Each step of both key-agreement protocols — a Cliques controller
// refreshing n-1 partials and seeding a joiner, a joiner folding its share
// into n-1 entries next to its pairwise keys and session key, a CKD
// controller blinding the session key under n-1 pairwise exponents — is a
// set of exponentiations with no data dependencies between them. Running
// each step as one batch turns its O(n) serial exponentiation latency into
// O(n / cores) without touching the protocol: results are bit-identical to
// the serial loop and every job still records exactly one Counter.Inc
// under its own label, so the Table 2-4 accounting is preserved (Counter
// is goroutine-safe).

// batchWorkers overrides the pool width; 0 means runtime.GOMAXPROCS.
var batchWorkers atomic.Int64

// SetBatchWorkers sets the worker-pool width used by ExpBatch and returns
// the previous setting. n <= 1 forces the serial path (the parity tests
// run every scenario both ways); 0 restores the default of
// runtime.GOMAXPROCS workers.
func SetBatchWorkers(n int) int {
	return int(batchWorkers.Swap(int64(n)))
}

// BatchWorkers reports the effective pool width for a batch of n
// exponentiations.
func BatchWorkers(n int) int {
	w := int(batchWorkers.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ExpJob is one exponentiation of a batch: Base^Exp mod p, counted once
// under Label. A nil Base stands for the generator G and runs on the
// fixed-base table, exactly as PowG does.
type ExpJob struct {
	Base  *big.Int
	Exp   *big.Int
	Label string
}

// ExpBatch computes every job, fanning them across the worker pool
// (serially when the pool width is 1). Result i belongs to job i and is
// bit-identical to g.Exp(Base, Exp, c, Label), or g.PowG(Exp, c, Label)
// for a nil Base.
func (g *Group) ExpBatch(jobs []ExpJob, c *Counter) []*big.Int {
	out := make([]*big.Int, len(jobs))
	run := func(i int) {
		if j := jobs[i]; j.Base == nil {
			out[i] = g.PowG(j.Exp, c, j.Label)
		} else {
			out[i] = g.Exp(j.Base, j.Exp, c, j.Label)
		}
	}
	w := BatchWorkers(len(jobs))
	if w <= 1 {
		for i := range jobs {
			run(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				run(i)
			}
		}()
	}
	wg.Wait()
	return out
}
