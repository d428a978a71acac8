package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/spread"
)

// SweepResult is one protocol's `sgcbench -sizes` run: the analyzer's
// per-class/per-size phase decomposition measured on a live stack, the
// merged causal trace it was derived from, and the deterministic serial
// exponentiation counts from the pure protocol engines.
type SweepResult struct {
	Proto     string
	Summaries []analyze.ClassSummary
	Events    []obs.Event
	Exps      []analyze.ExpRow
}

// sweepClient is one live secure session under the sweep, with its private
// trace ring. All clients share one registry so histograms aggregate
// run-wide, mirroring the chaos harness.
type sweepClient struct {
	conn  *core.Conn
	scope *obs.Scope
}

// drain consumes the session's events; each SecureView answers with one
// small multicast so every node stamps a first-send for every key epoch —
// the last leg of the phase decomposition.
func (c *sweepClient) drain(group string) {
	for ev := range c.conn.Events() {
		if _, ok := ev.(core.SecureView); ok {
			_ = c.conn.Multicast(group, []byte("sweep-hello"))
		}
	}
}

// RekeySweep grows a secure group member by member on the paper's
// three-daemon topology and, at each requested size, churns a joiner
// (batch joins and leaves) and refreshes the key. Every rekey the run
// produces — initial, join, leave, refresh — lands in the merged causal
// trace, which the analyzer decomposes into per-class/per-size phase
// summaries. sizes must be ascending and >= 2.
func RekeySweep(proto string, sizes []int, batch int) (*SweepResult, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("bench: sweep needs at least one size")
	}
	if !sort.IntsAreSorted(sizes) || sizes[0] < 2 {
		return nil, fmt.Errorf("bench: sweep sizes must be ascending and >= 2, got %v", sizes)
	}
	if batch < 1 {
		batch = 1
	}
	maxN := sizes[len(sizes)-1]
	inSizes := make(map[int]bool, len(sizes))
	for _, n := range sizes {
		inSizes[n] = true
	}

	cluster, err := spread.NewCluster(3, benchConfig())
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()

	const group = "sweep"
	reg := obs.NewRegistry()
	var scopes []*obs.Scope  // every client ever, departed ones included
	var alive []*sweepClient // clients currently in the group
	var all []*sweepClient   // every client ever, for teardown

	connect := func(daemonIdx int, user string) (*sweepClient, error) {
		d := placeDaemon(cluster, daemonIdx)
		ep, err := d.Connect(user)
		if err != nil {
			return nil, err
		}
		member := user + "#" + d.Name()
		sc := &obs.Scope{Node: member, Rec: obs.NewRecorder(member, 0), Reg: reg, Log: obs.L("core")}
		c := &sweepClient{conn: core.New(ep, core.WithObs(sc)), scope: sc}
		scopes = append(scopes, sc)
		all = append(all, c)
		go c.drain(group)
		return c, nil
	}
	defer func() {
		for _, c := range all {
			_ = c.conn.Disconnect()
		}
	}()

	// waitStable polls until every alive client is secured on exactly
	// `want` members at one common epoch >= minEpoch.
	waitStable := func(want int, minEpoch uint64, what string) (uint64, error) {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			var epoch uint64
			ok := true
			for i, c := range alive {
				members, e, secured := c.conn.GroupState(group)
				if !secured || len(members) != want || e < minEpoch {
					ok = false
					break
				}
				if i == 0 {
					epoch = e
				} else if e != epoch {
					ok = false
					break
				}
			}
			if ok && len(alive) > 0 {
				return epoch, nil
			}
			time.Sleep(5 * time.Millisecond)
		}
		return 0, fmt.Errorf("bench: sweep %s: no stable %d-member group at epoch >= %d within 30s", what, want, minEpoch)
	}

	join := func(daemonIdx int, user string, want int, minEpoch uint64) (*sweepClient, uint64, error) {
		c, err := connect(daemonIdx, user)
		if err != nil {
			return nil, 0, err
		}
		if err := c.conn.Join(group, proto, crypt.SuiteBlowfish); err != nil {
			return nil, 0, err
		}
		alive = append(alive, c)
		epoch, err := waitStable(want, minEpoch, "join "+user)
		return c, epoch, err
	}

	// Grow member by member; churn and refresh at each requested size.
	var epoch uint64
	if _, epoch, err = join(0, "m00", 1, 1); err != nil {
		return nil, err
	}
	for n := 2; n <= maxN; n++ {
		if inSizes[n] {
			for b := 0; b < batch; b++ {
				tc, e, err := join(maxN, fmt.Sprintf("t%02d-%d", n, b), n, epoch+1)
				if err != nil {
					return nil, err
				}
				epoch = e
				if err := tc.conn.Leave(group); err != nil {
					return nil, err
				}
				alive = alive[:len(alive)-1]
				if epoch, err = waitStable(n-1, epoch+1, "churn leave"); err != nil {
					return nil, err
				}
				_ = tc.conn.Disconnect()
			}
		}
		if _, epoch, err = join(n-1, fmt.Sprintf("m%02d", n-1), n, epoch+1); err != nil {
			return nil, err
		}
		if inSizes[n] {
			if err := alive[0].conn.KeyRefresh(group); err != nil {
				return nil, err
			}
			if epoch, err = waitStable(n, epoch+1, "refresh"); err != nil {
				return nil, err
			}
		}
	}
	// Let trailing first-send events land before harvesting the rings.
	time.Sleep(100 * time.Millisecond)

	traces := make([][]obs.Event, 0, len(scopes))
	for _, sc := range scopes {
		traces = append(traces, sc.Rec.Events())
	}
	events := obs.Merge(traces...)
	rekeys := analyze.Correlate(events)

	res := &SweepResult{
		Proto:     proto,
		Summaries: analyze.Summarize(rekeys),
		Events:    events,
	}
	for _, n := range sizes {
		jc, err := JoinCounts(proto, n)
		if err != nil {
			return nil, err
		}
		t4, err := Table4(proto, n)
		if err != nil {
			return nil, err
		}
		res.Exps = append(res.Exps, analyze.ExpRow{
			N:               n,
			JoinController:  jc.Roles[0].Total,
			JoinNewMember:   jc.Roles[1].Total,
			JoinSerial:      t4.Join,
			LeaveSerial:     t4.Leave,
			CtrlLeaveSerial: t4.CtrlLeave,
		})
	}
	return res, nil
}

// ParseSizes parses a sweep size spec: "2..8" (inclusive range) or a
// comma list "2,4,8". The result is ascending and de-duplicated.
func ParseSizes(spec string) ([]int, error) {
	var out []int
	var lo, hi int
	if n, err := fmt.Sscanf(spec, "%d..%d", &lo, &hi); err == nil && n == 2 {
		if lo < 2 || hi < lo {
			return nil, fmt.Errorf("bench: bad size range %q", spec)
		}
		for v := lo; v <= hi; v++ {
			out = append(out, v)
		}
		return out, nil
	}
	seen := make(map[int]bool)
	var v int
	for _, part := range splitComma(spec) {
		if _, err := fmt.Sscanf(part, "%d", &v); err != nil || v < 2 {
			return nil, fmt.Errorf("bench: bad size %q in %q", part, spec)
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty size spec %q", spec)
	}
	sort.Ints(out)
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
