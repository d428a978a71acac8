package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/spread"
)

// Shares of the traced run's measured time.
const (
	dataShare  = 0.15 // each of the untraced and the traced open-loop phase
	satShare   = 0.08 // closed-loop saturation
	churnShare = 0.20 // traced join/leave/refresh cycles
	rungShare  = 0.06 // each stack rung: spread, flush, remote
)

// saturationWindow is the closed loop's credit window, as in the
// repository's bulk-throughput benchmark: deep enough to keep every
// pipeline stage busy, shallow enough never to trip the slow-client
// disconnect.
const saturationWindow = 2048

// tracedRun is the -trace 1 run: the workload once more with spans around
// every call into the stack and counter deltas over each phase, then the
// layer-ladder rungs at the workload's shape. It reports per-layer
// metrics; the spans are written under out at exit.
func tracedRun(w *workload, seed uint64, dur time.Duration, out string) (*result, error) {
	tr := newTracer()
	st, _, err := setup(w, true)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	res := &result{}
	frac := func(f float64) time.Duration { return time.Duration(float64(dur) * f) }

	// Untraced and traced open-loop phases back to back: their difference
	// is the tracing overhead.
	lu, pu := st.dataPhase(seed, frac(dataShare), nil)
	res.account(lu, "untraced data stream")
	untracedP50 := pu.latency(lu, 0.5)
	res.set("loadgen.lat_p99_ms", pu.latency(lu, 0.99)/1e6, "ms")
	res.set("runtime.cpu_us_per_msg", pu.cpuPerMsg(lu), "us")

	before := st.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	l, p := st.dataPhase(seed+1, frac(dataShare), tr)
	runtime.ReadMemStats(&ms1)
	after := st.counters()
	res.account(l, "traced data stream")
	delivered := float64(p.delivered(l))
	tracedP50 := p.latency(l, 0.5)
	d := after.minus(before)

	calls := tr.durations("core.Multicast")
	res.set("core.multicast_call_p50_us", percentile(calls, 0.5)/1e3, "us")
	res.set("core.multicast_call_p99_us", percentile(calls, 0.99)/1e3, "us")
	res.set("crypt.opens_per_delivery", float64(d.cryptOpens)/(delivered*float64(l.members)), "ratio")
	res.set("spread.wire_frames_per_msg", float64(d.wireFrames)/delivered, "count")
	res.set("spread.wire_bytes_per_msg", float64(d.wireBytes)/delivered, "B")
	res.set("spread.retransmits", float64(d.retransmits), "count")
	res.set("spread.nacks", float64(d.nacks), "count")
	res.set("transport.sendq_dropped", float64(d.sendqDropped), "count")
	res.set("transport.dial_failures", float64(d.dialFailures), "count")
	res.set("runtime.allocs_per_msg", float64(ms1.Mallocs-ms0.Mallocs)/delivered, "count")
	res.set("runtime.gc_per_kmsg", float64(ms1.NumGC-ms0.NumGC)*1000/delivered, "count")
	res.set("runtime.goroutines", float64(runtime.NumGoroutine()), "count")
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	res.set("runtime.heap_live_mb", float64(ms2.HeapAlloc)/(1<<20), "MB")
	res.set("loadgen.late_p99_ms", percentile(p.late, 0.99)/1e6, "ms")
	res.set("loadgen.backlog_max", float64(p.backlogMax), "count")
	res.set("trace.overhead_lat_p50_ms", (tracedP50-untracedP50)/1e6, "ms")
	res.set("trace.overhead_cpu_us_per_msg", p.cpuPerMsg(l)-pu.cpuPerMsg(lu), "us")
	wireFrame := d.dataBytes / max(d.dataFrames, 1)

	// Closed-loop saturation: a diagnostic, too noisy to gate.
	send, names := st.senders(w.senders)
	ls := newLedger(seed+2, w.size, 1<<20, names, len(st.sessions))
	st.use(ls)
	res.set("loadgen.msgs_per_s", saturate(ls, send, frac(satShare), saturationWindow), "1/s")
	res.account(ls, "saturation stream")

	// Traced churn: every rekey's exponentiations and phase split.
	ch, err := st.churn(seed, frac(churnShare), 0, tr)
	if err != nil {
		return nil, err
	}
	res.Attempted += ch.ops
	res.fail(ch.failedOps, "rekey operations")
	res.set("core.dh_exp_per_join", median(ch.exps["join"]), "count")
	res.set("core.dh_exp_per_leave", median(ch.exps["leave"]), "count")
	res.set("core.dh_exp_per_refresh", median(ch.exps["refresh"]), "count")
	st.rekeyPhases(res, ch.ops)
	res.fail(int(st.bad.Load()), "deliveries outside any stream")

	// The ladder: the same shape and rate through each layer alone.
	rungP50 := map[string]float64{}
	for _, kind := range []string{"spread", "flush", "remote"} {
		p50, cpu, err := st.rung(kind, seed, frac(rungShare), res)
		if err != nil {
			return nil, fmt.Errorf("%s rung: %w", kind, err)
		}
		rungP50[kind] = p50
		res.set(kind+".lat_p50_ms", p50/1e6, "ms")
		res.set(kind+".cpu_us_per_msg", cpu, "us")
	}
	memUs, err := transportRung(false, int(wireFrame))
	if err != nil {
		return nil, err
	}
	tcpUs, err := transportRung(true, int(wireFrame))
	if err != nil {
		return nil, err
	}
	res.set("transport.mem_send_us", memUs, "us")
	res.set("transport.tcp_lat_p50_us", tcpUs, "us")
	sealUs, openUs, err := cryptRung(w.size)
	if err != nil {
		return nil, err
	}
	res.set("crypt.seal_us", sealUs, "us")
	res.set("crypt.open_us", openUs, "us")
	for _, s := range spread.MeasureWireCodec(2000) {
		res.set("wirecodec."+s.Kind+".encode_ns", s.CodecEncNs, "ns")
		res.set("wirecodec."+s.Kind+".decode_ns", s.CodecDecNs, "ns")
	}
	if err := kgaRung(res); err != nil {
		return nil, err
	}
	dhRung(res)

	// Hand-off residue: end-to-end latency minus the rung one layer below
	// the secure layer (flush in process, the remote protocol over TCP)
	// and the seal and open the secure layer adds on top of it.
	below := rungP50["flush"]
	if w.tcp {
		below = rungP50["remote"]
	}
	res.set("handoff.residue_ms", (tracedP50-below)/1e6-(sealUs+openUs)/1e3, "ms")
	res.set("trace.spans", float64(tr.count()), "count")
	if err := tr.write(out, spanFile(w, seed)); err != nil {
		return nil, err
	}
	return res, nil
}

// counterSet is the stack's existing instruments summed over daemons and
// sessions, read before and after a phase.
type counterSet struct {
	cryptOpens, wireFrames, wireBytes, dataFrames, dataBytes int64
	retransmits, nacks, sendqDropped, dialFailures           int64
}

func (st *stack) counters() counterSet {
	var c counterSet
	c.cryptOpens = obs.Default.Counter("crypt_open_msgs").Value()
	for _, d := range st.daemons {
		for name, v := range d.Obs().Reg.Snapshot().Counters {
			switch {
			case strings.HasPrefix(name, "spread_wire_sent_msgs"):
				c.wireFrames += v
				if name == obs.LabelName("spread_wire_sent_msgs", "data") {
					c.dataFrames += v
				}
			case strings.HasPrefix(name, "spread_wire_sent_bytes"):
				c.wireBytes += v
				if name == obs.LabelName("spread_wire_sent_bytes", "data") {
					c.dataBytes += v
				}
			case name == "spread_msgs_retransmitted":
				c.retransmits += v
			case name == "spread_nacks_sent":
				c.nacks += v
			case name == "transport_sendq_dropped":
				c.sendqDropped += v
			case name == "transport_dial_failures":
				c.dialFailures += v
			}
		}
	}
	return c
}

func (a counterSet) minus(b counterSet) counterSet {
	return counterSet{
		cryptOpens: a.cryptOpens - b.cryptOpens, wireFrames: a.wireFrames - b.wireFrames,
		wireBytes: a.wireBytes - b.wireBytes, dataFrames: a.dataFrames - b.dataFrames,
		dataBytes: a.dataBytes - b.dataBytes, retransmits: a.retransmits - b.retransmits,
		nacks: a.nacks - b.nacks, sendqDropped: a.sendqDropped - b.sendqDropped,
		dialFailures: a.dialFailures - b.dialFailures,
	}
}

// rekeyPhases splits the churn's rekeys into phases with the trace
// analyzer, over every member's existing trace ring, and reports the mean
// of each phase per class, the flush round time, and how many VS views the
// members installed per rekey. The analyzer's first-send phase is left
// out: no data is sent during the churn, so it never occurs.
func (st *stack) rekeyPhases(res *result, ops int) {
	var traces [][]obs.Event
	var rounds, roundMs float64
	for _, s := range append(append([]*session(nil), st.sessions...), st.joiner) {
		traces = append(traces, s.scope.Rec.GroupEvents(group))
		if h, ok := s.scope.Reg.Snapshot().Histograms["flush_round_duration"]; ok {
			rounds += float64(h.Count)
			roundMs += h.MeanMs * float64(h.Count)
		}
	}
	events := obs.Merge(traces...)
	views := 0
	for _, e := range events {
		if e.Comp == "flush" && e.Kind == "vs-view-install" {
			views++
		}
	}
	res.set("spread.views_per_rekey", float64(views)/float64(max(ops, 1)), "count")
	res.set("flush.round_ms", roundMs/math.Max(rounds, 1), "ms")

	type acc struct{ n, flush, align, kga, install float64 }
	by := map[string]*acc{}
	for _, s := range analyze.Summarize(analyze.Correlate(events)) {
		a := by[s.Class]
		if a == nil {
			a = &acc{}
			by[s.Class] = a
		}
		n := float64(s.Records)
		a.n += n
		a.flush += s.Mean.FlushMs * n
		a.align += s.Mean.AlignMs * n
		a.kga += s.Mean.KGAMs * n
		a.install += s.Mean.InstallMs * n
	}
	for _, class := range []string{"join", "leave", "refresh"} {
		a := by[class]
		if a == nil || a.n == 0 {
			a = &acc{n: math.NaN()}
		}
		res.set("rekey."+class+".flush_ms", a.flush/a.n, "ms")
		res.set("rekey."+class+".align_ms", a.align/a.n, "ms")
		res.set("rekey."+class+".kga_ms", a.kga/a.n, "ms")
		res.set("rekey."+class+".install_ms", a.install/a.n, "ms")
	}
}
