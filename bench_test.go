// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (Section 6). Each benchmark corresponds to one table
// or figure; cmd/sgcbench prints the same data as formatted tables.
//
// Custom metrics:
//   - exps/op            measured exponentiations (Tables 2-4)
//   - paper-exps/op      the paper's closed-form count for comparison
//   - join-ms, leave-ms  wall / CPU time of one operation (Figures 3-4)
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	_ "repro/internal/ckd"
	_ "repro/internal/cliques"
	"repro/internal/crypt"
	"repro/internal/dh"
)

var protocols = []string{"cliques", "ckd"}

// BenchmarkTable2JoinExpCounts regenerates Table 2: the per-role
// exponentiation counts of a JOIN for Cliques (controller n+1, new member
// 2n-1) and CKD (controller n+2, new member 4).
func BenchmarkTable2JoinExpCounts(b *testing.B) {
	for _, proto := range protocols {
		for _, n := range []int{4, 8, 16, 32} {
			proto, n := proto, n
			b.Run(fmt.Sprintf("%s/n%d", proto, n), func(b *testing.B) {
				var ctrl, joiner int
				for i := 0; i < b.N; i++ {
					c, err := bench.JoinCounts(proto, n)
					if err != nil {
						b.Fatal(err)
					}
					ctrl = c.Roles[0].Total
					joiner = c.Roles[1].Total
					if c.SerialTotal != c.PaperSerial {
						b.Fatalf("serial %d != paper %d", c.SerialTotal, c.PaperSerial)
					}
				}
				b.ReportMetric(float64(ctrl), "ctrl-exps")
				b.ReportMetric(float64(joiner), "newmember-exps")
			})
		}
	}
}

// BenchmarkTable3LeaveExpCounts regenerates Table 3: the controller's
// exponentiation counts for a LEAVE (Cliques n; CKD n-1, or 3n-5 when the
// controller itself leaves).
func BenchmarkTable3LeaveExpCounts(b *testing.B) {
	for _, proto := range protocols {
		for _, ctrlLeaves := range []bool{false, true} {
			for _, n := range []int{4, 8, 16, 32} {
				proto, ctrlLeaves, n := proto, ctrlLeaves, n
				name := fmt.Sprintf("%s/n%d", proto, n)
				if ctrlLeaves {
					name = fmt.Sprintf("%s/ctrl-leaves/n%d", proto, n)
				}
				b.Run(name, func(b *testing.B) {
					var exps, paper int
					for i := 0; i < b.N; i++ {
						c, err := bench.LeaveCounts(proto, n, ctrlLeaves)
						if err != nil {
							b.Fatal(err)
						}
						exps, paper = c.SerialTotal, c.PaperSerial
						if exps != paper {
							b.Fatalf("serial %d != paper %d", exps, paper)
						}
					}
					b.ReportMetric(float64(exps), "exps")
					b.ReportMetric(float64(paper), "paper-exps")
				})
			}
		}
	}
}

// BenchmarkTable4SerialExp regenerates Table 4: total serial
// exponentiations per operation (Cliques join 3n, leave n, controller
// leave n; CKD join n+6, leave n-1, controller leave 3n-5).
func BenchmarkTable4SerialExp(b *testing.B) {
	for _, proto := range protocols {
		for _, n := range []int{4, 8, 16, 32} {
			proto, n := proto, n
			b.Run(fmt.Sprintf("%s/n%d", proto, n), func(b *testing.B) {
				var row bench.Table4Row
				for i := 0; i < b.N; i++ {
					var err error
					row, err = bench.Table4(proto, n)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(row.Join), "join-exps")
				b.ReportMetric(float64(row.Leave), "leave-exps")
				b.ReportMetric(float64(row.CtrlLeave), "ctrlleave-exps")
			})
		}
	}
}

// BenchmarkFigure3TotalTime regenerates Figure 3: the total wall-clock
// time of one join/leave operation versus group size, on the paper's
// topology (three daemons, two singleton members, the rest co-located),
// including all network and flush-layer overhead. The flush-only series
// isolates the group communication cost.
func BenchmarkFigure3TotalTime(b *testing.B) {
	sizes := []int{3, 5, 10, 15}
	for _, proto := range protocols {
		for _, n := range sizes {
			proto, n := proto, n
			b.Run(fmt.Sprintf("%s/n%d", proto, n), func(b *testing.B) {
				st, err := bench.MeasureStack(proto, n, b.N)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.Join.Milliseconds()), "join-ms")
				b.ReportMetric(float64(st.Leave.Milliseconds()), "leave-ms")
			})
		}
	}
	for _, n := range sizes {
		n := n
		b.Run(fmt.Sprintf("flush-only/n%d", n), func(b *testing.B) {
			st, err := bench.MeasureFlushOnly(n, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.Join.Microseconds())/1000, "join-ms")
			b.ReportMetric(float64(st.Leave.Microseconds())/1000, "leave-ms")
		})
	}
}

// BenchmarkFigure4CPUTime regenerates Figure 4: the computation (CPU) time
// of one join and one leave versus group size, for both protocols, along
// with the fraction of it spent in modular exponentiation (the paper
// reports 88% for a 15-member join).
func BenchmarkFigure4CPUTime(b *testing.B) {
	for _, proto := range protocols {
		for _, n := range []int{5, 10, 15, 20, 25, 30} {
			proto, n := proto, n
			b.Run(fmt.Sprintf("%s/n%d", proto, n), func(b *testing.B) {
				c, err := bench.MeasureCPU(proto, n, b.N, dh.Group512)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(c.Join.Microseconds())/1000, "join-ms")
				b.ReportMetric(float64(c.Leave.Microseconds())/1000, "leave-ms")
				b.ReportMetric(c.JoinExpShare*100, "modexp-%")
			})
		}
	}
}

// BenchmarkAblationModulusSize measures the modulus-size sensitivity of
// the paper's dominant cost (one modular exponentiation).
func BenchmarkAblationModulusSize(b *testing.B) {
	for _, bits := range []int{512, 768, 1024} {
		bits := bits
		g, err := dh.GroupForBits(bits)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bits%d", bits), func(b *testing.B) {
			base := g.PowG(g.MustShare(), nil, "")
			exp := g.MustShare()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Exp(base, exp, nil, "")
			}
		})
	}
}

// BenchmarkAblationCipherThroughput measures sustained encrypted multicast
// throughput for each cipher suite through the full stack — isolating the
// bulk-privacy cost the paper argues is negligible next to key management.
func BenchmarkAblationCipherThroughput(b *testing.B) {
	for _, suite := range []string{"blowfish-cbc", "aes-cbc", "null"} {
		for _, size := range []int{64, 1024, 8192} {
			suite, size := suite, size
			b.Run(fmt.Sprintf("%s/%dB", suite, size), func(b *testing.B) {
				count := b.N
				if count < 50 {
					count = 50
				}
				tp, err := bench.MeasureThroughput(suite, size, count)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(tp.MsgsPerSec, "msgs/s")
				b.ReportMetric(tp.MBPerSec, "MB/s")
			})
		}
	}
}

// BenchmarkPowGFixedBase compares the generic square-and-multiply
// exponentiation of the group generator against the precomputed fixed-base
// comb table PowG now uses on the key-agreement hot path.
func BenchmarkPowGFixedBase(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		g, err := dh.GroupForBits(bits)
		if err != nil {
			b.Fatal(err)
		}
		g.Precompute()
		exp := g.MustShare()
		b.Run(fmt.Sprintf("generic/bits%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Exp(g.G, exp, nil, "")
			}
		})
		b.Run(fmt.Sprintf("fixedbase/bits%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.PowG(exp, nil, "")
			}
		})
	}
}

// BenchmarkExpBatchParallel measures a 16-entry batch of independent
// exponentiations — the shape of a Cliques final broadcast or a CKD key
// distribution for a 16-member group — at pool widths 1 through 8.
func BenchmarkExpBatchParallel(b *testing.B) {
	g, err := dh.GroupForBits(1024)
	if err != nil {
		b.Fatal(err)
	}
	exp := g.MustShare()
	jobs := make([]dh.ExpJob, 16)
	for i := range jobs {
		jobs[i] = dh.ExpJob{Base: g.PowG(g.MustShare(), nil, ""), Exp: exp}
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			prev := dh.SetBatchWorkers(w)
			defer dh.SetBatchWorkers(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.ExpBatch(jobs, nil)
			}
		})
	}
}

// BenchmarkSealOpenPooled measures one Seal+Open round trip per cipher
// suite with the HMAC-state pooling fast path on and off. Allocation
// counts are the interesting metric (b.ReportAllocs).
func BenchmarkSealOpenPooled(b *testing.B) {
	secret := []byte("benchmark-group-secret-material!")
	for _, suite := range []string{"aes-cbc", "aes-ctr"} {
		for _, pooled := range []bool{true, false} {
			s, err := crypt.NewSuite(suite, secret, []byte("bench"))
			if err != nil {
				b.Fatal(err)
			}
			msg := make([]byte, 1024)
			name := fmt.Sprintf("%s/pooled", suite)
			if !pooled {
				name = fmt.Sprintf("%s/unpooled", suite)
			}
			b.Run(name, func(b *testing.B) {
				prev := crypt.SetPooling(pooled)
				defer crypt.SetPooling(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					frame, err := s.Seal(msg)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.Open(frame); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestWriteBenchExpJSON records the exponentiation fast-path performance —
// fixed-base speedup, batch-pool scaling, and Seal/Open cost with pooling
// on and off — to BENCH_exp.json so the perf trajectory is tracked in-repo.
func TestWriteBenchExpJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping perf recording in -short mode")
	}
	rep := bench.ExpReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}

	for _, bits := range []int{512, 1024} {
		g, err := dh.GroupForBits(bits)
		if err != nil {
			t.Fatal(err)
		}
		rep.PowG = append(rep.PowG, bench.MeasurePowG(g, 40))
	}

	g1024, err := dh.GroupForBits(1024)
	if err != nil {
		t.Fatal(err)
	}
	rep.Batch = bench.MeasureExpBatch(g1024, 16, 10, []int{1, 2, 4, 8})

	secret := []byte("benchmark-group-secret-material!")
	for _, suite := range []string{"aes-cbc", "aes-ctr"} {
		for _, pooled := range []bool{true, false} {
			s, err := crypt.NewSuite(suite, secret, []byte("bench"))
			if err != nil {
				t.Fatal(err)
			}
			msg := make([]byte, 1024)
			prev := crypt.SetPooling(pooled)
			sealAllocs := testing.AllocsPerRun(200, func() {
				if _, err := s.Seal(msg); err != nil {
					t.Fatal(err)
				}
			})
			frame, err := s.Seal(msg)
			if err != nil {
				t.Fatal(err)
			}
			openAllocs := testing.AllocsPerRun(200, func() {
				if _, err := s.Open(frame); err != nil {
					t.Fatal(err)
				}
			})
			const iters = 2000
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := s.Seal(msg); err != nil {
					t.Fatal(err)
				}
			}
			sealNs := time.Since(start).Nanoseconds() / iters
			start = time.Now()
			for i := 0; i < iters; i++ {
				if _, err := s.Open(frame); err != nil {
					t.Fatal(err)
				}
			}
			openNs := time.Since(start).Nanoseconds() / iters
			crypt.SetPooling(prev)

			rep.SealOpen = append(rep.SealOpen, bench.SealOpenPoint{
				Suite:      suite,
				Size:       len(msg),
				Pooled:     pooled,
				SealNs:     sealNs,
				OpenNs:     openNs,
				SealAllocs: sealAllocs,
				OpenAllocs: openAllocs,
			})
		}
	}

	if err := bench.WriteJSON("BENCH_exp.json", rep); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.PowG {
		t.Logf("PowG %d-bit: generic %v, fixed %v (%.2fx)", p.Bits, p.Generic, p.Fixed, p.Speedup)
	}
	for _, p := range rep.Batch {
		t.Logf("ExpBatch n=%d workers=%d: %v (%.2fx)", p.N, p.Workers, p.Total, p.Scaling)
	}
}

// BenchmarkAblationDaemonVsClientModel contrasts the paper's two security
// models: the client model re-keys the group on every membership change,
// while the daemon model keeps one daemon-group key (re-keyed only on
// daemon membership changes) so a client join/leave costs no key agreement.
func BenchmarkAblationDaemonVsClientModel(b *testing.B) {
	for _, n := range []int{5, 10} {
		n := n
		b.Run(fmt.Sprintf("client-model-cliques/n%d", n), func(b *testing.B) {
			st, err := bench.MeasureStack("cliques", n, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.Join.Microseconds())/1000, "join-ms")
			b.ReportMetric(float64(st.Leave.Microseconds())/1000, "leave-ms")
		})
		b.Run(fmt.Sprintf("daemon-model/n%d", n), func(b *testing.B) {
			st, err := bench.DaemonModelTiming(n, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.Join.Microseconds())/1000, "join-ms")
			b.ReportMetric(float64(st.Leave.Microseconds())/1000, "leave-ms")
		})
	}
}
