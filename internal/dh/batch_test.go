package dh

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"
)

// withWorkers runs f under a fixed batch pool width, restoring the
// previous setting afterwards.
func withWorkers(n int, f func()) {
	prev := SetBatchWorkers(n)
	defer SetBatchWorkers(prev)
	f()
}

func TestExpBatchMatchesSerial(t *testing.T) {
	g := Group512
	exp := g.MustShare()
	var jobs []ExpJob
	for i := 0; i < 9; i++ {
		jobs = append(jobs, ExpJob{Base: g.PowG(g.MustShare(), nil, ""), Exp: exp, Label: OpKeyEncrypt})
	}

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			withWorkers(workers, func() {
				c := NewCounter()
				got := g.ExpBatch(jobs, c)
				if len(got) != len(jobs) {
					t.Fatalf("got %d results, want %d", len(got), len(jobs))
				}
				for i, j := range jobs {
					if want := new(big.Int).Exp(j.Base, j.Exp, g.P); got[i].Cmp(want) != 0 {
						t.Errorf("job %d differs from serial Exp", i)
					}
				}
				if c.Get(OpKeyEncrypt) != len(jobs) || c.Total() != len(jobs) {
					t.Errorf("counted %d under label, %d total; want %d of each",
						c.Get(OpKeyEncrypt), c.Total(), len(jobs))
				}
			})
		})
	}
}

// TestExpBatchMixedLabels runs the shape of a fused protocol step — jobs
// with different bases, exponents and labels, including generator jobs —
// serially and on eight workers: the results must be bit-identical and the
// per-label counts identical. Run it under -race to exercise the pool.
func TestExpBatchMixedLabels(t *testing.T) {
	g := Group512
	share, x := g.MustShare(), g.MustShare()
	var jobs []ExpJob
	for i := 0; i < 7; i++ {
		jobs = append(jobs, ExpJob{Base: g.PowG(g.MustShare(), nil, ""), Exp: share, Label: OpKeyEncrypt})
	}
	for i := 0; i < 6; i++ {
		jobs = append(jobs, ExpJob{Base: g.PowG(g.MustShare(), nil, ""), Exp: x, Label: OpLongTermKey})
	}
	jobs = append(jobs,
		ExpJob{Exp: x, Label: OpShareRemove},
		ExpJob{Base: g.PowG(g.MustShare(), nil, ""), Exp: share, Label: OpSessionKey})

	var serial, parallel []*big.Int
	c1, c2 := NewCounter(), NewCounter()
	withWorkers(1, func() { serial = g.ExpBatch(jobs, c1) })
	withWorkers(8, func() { parallel = g.ExpBatch(jobs, c2) })
	for i, j := range jobs {
		if serial[i].Cmp(parallel[i]) != 0 {
			t.Errorf("job %d: serial != parallel", i)
		}
		base := j.Base
		if base == nil {
			base = g.G
		}
		if want := new(big.Int).Exp(base, j.Exp, g.P); serial[i].Cmp(want) != 0 {
			t.Errorf("job %d: differs from generic Exp", i)
		}
	}
	want := map[string]int{OpKeyEncrypt: 7, OpLongTermKey: 6, OpShareRemove: 1, OpSessionKey: 1}
	if got := c1.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("serial counts %v, want %v", got, want)
	}
	if got := c2.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("parallel counts %v, want %v", got, want)
	}
}

// TestExpBatchSliceMatchesSerial runs the many-bases/one-exponent shape
// (a controller re-keying every partial key with one share) serially and
// on four workers.
func TestExpBatchSliceMatchesSerial(t *testing.T) {
	g := Group512
	exp := g.MustShare()
	var jobs []ExpJob
	for i := 0; i < 7; i++ {
		jobs = append(jobs, ExpJob{Base: g.PowG(g.MustShare(), nil, ""), Exp: exp, Label: OpShareUpdate})
	}
	var serial, parallel []*big.Int
	c1, c2 := NewCounter(), NewCounter()
	withWorkers(1, func() { serial = g.ExpBatch(jobs, c1) })
	withWorkers(4, func() { parallel = g.ExpBatch(jobs, c2) })
	for i := range jobs {
		if serial[i].Cmp(parallel[i]) != 0 {
			t.Errorf("slice entry %d: serial != parallel", i)
		}
	}
	if c1.Total() != c2.Total() || c1.Get(OpShareUpdate) != c2.Get(OpShareUpdate) {
		t.Errorf("counter parity broken: serial %d, parallel %d", c1.Total(), c2.Total())
	}
}

// TestExpBatchExpsMatchesSerial runs the one-base/many-exponents shape
// (one key raised to each member's pairwise exponent) serially and on
// eight workers.
func TestExpBatchExpsMatchesSerial(t *testing.T) {
	g := Group512
	base := g.PowG(g.MustShare(), nil, "")
	var jobs []ExpJob
	for i := 0; i < 6; i++ {
		jobs = append(jobs, ExpJob{Base: base, Exp: g.MustShare(), Label: OpKeyEncrypt})
	}
	var serial, parallel []*big.Int
	c1, c2 := NewCounter(), NewCounter()
	withWorkers(1, func() { serial = g.ExpBatch(jobs, c1) })
	withWorkers(8, func() { parallel = g.ExpBatch(jobs, c2) })
	for i, j := range jobs {
		if serial[i].Cmp(parallel[i]) != 0 {
			t.Errorf("entry %d: serial != parallel", i)
		}
		if want := new(big.Int).Exp(base, j.Exp, g.P); serial[i].Cmp(want) != 0 {
			t.Errorf("entry %d: differs from generic Exp", i)
		}
	}
	if c1.Total() != c2.Total() {
		t.Errorf("counter parity broken: serial %d, parallel %d", c1.Total(), c2.Total())
	}
}

func TestExpBatchEmptyAndSingle(t *testing.T) {
	g := Group512
	exp := g.MustShare()
	if got := g.ExpBatch(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	got := g.ExpBatch([]ExpJob{{Base: g.G, Exp: exp}}, nil)
	if want := new(big.Int).Exp(g.G, exp, g.P); got[0].Cmp(want) != 0 {
		t.Fatalf("single-job batch differs from Exp")
	}
}

func TestBatchWorkersClamping(t *testing.T) {
	withWorkers(0, func() {
		if w := BatchWorkers(0); w != 1 {
			t.Errorf("BatchWorkers(0) = %d, want 1", w)
		}
		if w := BatchWorkers(1); w != 1 {
			t.Errorf("BatchWorkers(1) = %d, want 1", w)
		}
	})
	withWorkers(4, func() {
		if w := BatchWorkers(100); w != 4 {
			t.Errorf("BatchWorkers(100) = %d, want 4", w)
		}
		if w := BatchWorkers(2); w != 2 {
			t.Errorf("BatchWorkers(2) = %d, want 2", w)
		}
	})
}
