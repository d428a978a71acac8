// Command perfbench is the repository's end-to-end benchmark: secure
// AGREED multicast and rekeying through the whole stack (daemons, flush
// layer, secure layer, key agreement), on four workloads that stress
// different layers. One invocation runs one workload:
//
//	perfbench -workload multicast-small -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs the
// same workload with spans around every call it makes into the stack, then
// the layer-ladder rungs, and prints the per-layer metrics. Either way the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every message and every rekey is checked (see check.go); a violation
// sets correct to false and the exit code to 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	tcp     bool    // daemons over loopback TCP, members via the remote-client protocol
	members int     // standing secure members
	senders int     // of them, how many send, round robin
	size    int     // payload bytes
	rate    float64 // open-loop messages per second

	// churnShare is the share of the measured time spent cycling a joiner
	// through join, leave and refresh; the rest is the open-loop stream.
	churnShare float64
	// liveRate, when set, keeps member 0's stream running through the
	// churn at this rate instead of running the two apart.
	liveRate float64
}

// The workloads. Why each exists is recorded in BENCHMARK.json; all but
// rekey-churn-live are in its gated set. rekey-churn-live sends while the
// group rekeys, which at this commit loses accepted messages (see
// CHANGES.md), so it fails its correctness check and stays out of the gate.
// multicast-small runs at 20k msgs/s, not 40k: at 40k a 2-CPU host sits
// near the stack's knee, and its p50 split between 0.8 ms and 1.1–2.2 ms
// from run to run as the hypervisor took CPU time.
var workloads = []*workload{
	{name: "multicast-small", members: 3, senders: 3, size: 64, rate: 20000, churnShare: 0.4},
	{name: "multicast-large", members: 3, senders: 1, size: 8192, rate: 2000, churnShare: 0.4},
	{name: "remote-small", tcp: true, members: 2, senders: 2, size: 64, rate: 10000, churnShare: 0.4},
	{name: "rekey-churn", members: 7, senders: 1, size: 256, rate: 500, churnShare: 0.5},
	{name: "rekey-churn-live", members: 7, senders: 1, size: 256, rate: 500, churnShare: 1, liveRate: 500},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(1, "no measurement for "+name)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records failures found by a check.
func (r *result) fail(n int, what string) {
	if n > 0 {
		logf("FAIL %s: %d", what, n)
		r.Failed += n
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: multicast-small, multicast-large, remote-small or rekey-churn")
	seed := fs.Uint64("seed", 1, "seed for payload bytes and operation order")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run with the layer ladder (per-layer metrics)")
	out := fs.String("out", ".bench_build", "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("bad arguments: workload %q seconds %v trace %d", *name, *seconds, *trace)
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, dur, *out)
	} else {
		res, err = measuredRun(w, *seed, dur)
	}
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	res.Correct = res.Failed == 0
	bw := bufio.NewWriter(stdout)
	for _, n := range res.order {
		m := res.Metrics[n]
		fmt.Fprintf(bw, "%-40s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("encode result: %v", err)
		return 1
	}
	fmt.Fprintf(bw, "%s\n", line)
	if err := bw.Flush(); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// setupReps is how many times a run builds its system; setup_s is the
// median, and only the last build is measured further.
const setupReps = 3

// buildMedian sets the system up setupReps times and keeps the last.
func buildMedian(w *workload) (*stack, float64, error) {
	var times []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.stop()
		}
		s, d, err := setup(w, false)
		if err != nil {
			return nil, 0, err
		}
		st = s
		times = append(times, d.Seconds())
	}
	return st, median(times), nil
}

// warmup is the unmeasured stretch of stream before a measured phase, so
// pools, caches and goroutine stacks are at their working size.
const warmup = 500 * time.Millisecond

// measuredRun is the untraced run: the end-to-end metrics.
func measuredRun(w *workload, seed uint64, dur time.Duration) (*result, error) {
	st, setupS, err := buildMedian(w)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	res := &result{}
	res.set("setup_s", setupS, "s")

	churnDur := time.Duration(float64(dur) * w.churnShare)
	var latP50 float64
	if churnDur < dur {
		l, p := st.dataPhase(seed, dur-churnDur, nil)
		latP50 = p.latency(l, 0.5)
		res.account(l, "data stream")
	}
	ch, err := st.churn(seed, churnDur, w.liveRate, nil)
	if err != nil {
		return nil, err
	}
	res.Attempted += ch.ops
	res.fail(ch.failedOps, "rekey operations")
	if ch.ledger != nil {
		res.account(ch.ledger, "stream during churn")
		latP50 = ch.stream.latency(ch.ledger, 0.5)
	}
	res.fail(int(st.bad.Load()), "deliveries outside any stream")

	res.set("rss_peak_mb", vmHWM(), "MB")
	res.set("lat_p50_ms", latP50/1e6, "ms")
	res.set("join_p50_ms", median(ch.join)/1e6, "ms")
	res.set("leave_p50_ms", median(ch.leave)/1e6, "ms")
	res.set("refresh_p50_ms", median(ch.refresh)/1e6, "ms")
	pooled := append(append(append([]float64(nil), ch.join...), ch.leave...), ch.refresh...)
	res.set("rekey_p90_ms", percentile(pooled, 0.9)/1e6, "ms")
	logf("%s: %d/%d/%d join/leave/refresh, %d warnings",
		w.name, len(ch.join), len(ch.leave), len(ch.refresh), st.warnings.Load())
	return res, nil
}

// dataPhase runs a warmup and then the workload's open-loop stream for
// dur; it returns the stream's ledger and the measured phase.
func (st *stack) dataPhase(seed uint64, dur time.Duration, tr *tracer) (*ledger, phase) {
	w := st.w
	send, names := st.senders(w.senders)
	l := newLedger(seed, w.size, int(w.rate*(dur+warmup).Seconds())+16, names, len(st.sessions))
	st.use(l)
	openLoop(l, send, w.rate, warmup, nil, "")
	// Collect the garbage of set-up and warmup now, not in the first
	// measured stretch.
	runtime.GC()
	return l, openLoop(l, send, w.rate, dur, tr, "core.Multicast")
}

// account adds a stream's messages to the attempted count and its
// violations to the failed count.
func (r *result) account(l *ledger, what string) {
	o := l.verify()
	r.Attempted += int(l.issued.Load())
	if o.failed() > 0 {
		logf("%s: %v", what, o)
	}
	r.fail(o.failed(), what)
}

// vmHWM is the process's peak resident set, from /proc/self/status.
func vmHWM() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// spanFile names the traced run's span file.
func spanFile(w *workload, seed uint64) string {
	return filepath.Join("spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
}
