package spread

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// The daemon membership protocol is a coordinator-based view agreement:
//
//  1. A daemon that suspects a view member, or hears from a daemon outside
//     its view, starts FORMING: it picks the smallest-named reachable
//     daemon as coordinator and sends it a PROPOSE.
//  2. The coordinator gathers proposals for a window, then sends SYNC with
//     the candidate set (proposers plus everyone currently reachable).
//  3. Each candidate freezes its old view and answers SYNC_ACK carrying
//     every old-view message it has seen (the delivery-cut contribution).
//  4. When all candidates acked, the coordinator broadcasts INSTALL with
//     the new view and the per-old-view message unions. Everyone merges
//     the union for its own old view, delivers the remainder of the old
//     view in (LTS, sender) order, and installs the new view.
//
// Attempts are identified by (round, coordinator), ordered
// lexicographically; every membership message carries its round and every
// daemon tracks the highest round seen, so a stalled attempt is always
// superseded by a strictly higher one. A candidate remembers the exact
// attempt it last acknowledged and only accepts the matching INSTALL —
// acknowledging a newer attempt abandons the older one, whose coordinator
// will time out and retry. Failures during the protocol (coordinator
// death, lost candidates) are handled by timeout and restart — the
// daemon-level analogue of the cascading membership changes the secure
// layer handles at the group level.

// attemptLess orders attempts by (round, coordinator).
func attemptLess(r1 uint64, c1 string, r2 uint64, c2 string) bool {
	if r1 != r2 {
		return r1 < r2
	}
	return c1 < c2
}

// noteRound folds an observed round into the high-water mark.
func (d *Daemon) noteRound(r uint64) {
	if r > d.form.maxRound {
		d.form.maxRound = r
	}
}

// startForming begins a membership attempt with a fresh, globally maximal
// round. Freeze state and the last-acknowledged attempt survive restarts:
// once a daemon has contributed its delivery cut it must not resume
// old-view delivery until some view installs.
func (d *Daemon) startForming() {
	now := time.Now()
	prev := d.form
	round := max(prev.round, prev.maxRound) + 1
	d.form = formingState{
		active:     true,
		round:      round,
		maxRound:   round,
		frozen:     prev.frozen,
		ackedRound: prev.ackedRound,
		ackedCoord: prev.ackedCoord,
		proposals:  map[string]bool{d.name: true},
		acks:       map[string]*syncAckMsg{},
		deadline:   now.Add(d.cfg.InstallTimeout),
	}

	if d.formingSince.IsZero() {
		d.formingSince = now
	}

	reachable := []string{d.name}
	for _, p := range d.peers {
		if p == d.name {
			continue
		}
		if heard, ok := d.lastHeard[p]; ok && now.Sub(heard) <= d.cfg.SuspectAfter {
			reachable = append(reachable, p)
		}
	}
	sort.Strings(reachable)
	d.form.coord = reachable[0]

	d.log.Debugf("%s: forming round=%d coord=%s reachable=%v", d.name, round, d.form.coord, reachable)
	d.obs.Record(obs.Event{Comp: "spread", Kind: "membership-forming",
		View:   d.view.ID.String(),
		Detail: fmt.Sprintf("round=%d coord=%s reachable=%v", round, d.form.coord, reachable)})

	if d.form.coord == d.name {
		d.form.isCoord = true
		d.form.gatherAt = now.Add(d.cfg.GatherWindow)
		return
	}
	d.sendTo(d.form.coord, &wireMsg{Kind: kindPropose, Prop: &proposeMsg{Round: d.form.round}})
}

func (d *Daemon) sendTo(to string, m *wireMsg) {
	data, err := encodeWireExtTo(wirecodec.GetBuf(), m, d.wireSendExt(m.Kind))
	if err != nil {
		wirecodec.PutBuf(data)
		return
	}
	d.counters.countSent(m.Kind, len(data))
	_ = d.node.Send(to, data)
	wirecodec.PutBuf(data)
}

// formingTimers advances the membership protocol on each tick.
func (d *Daemon) formingTimers(now time.Time) {
	if !d.form.active {
		return
	}
	if d.form.isCoord && !d.form.gatherAt.IsZero() && now.After(d.form.gatherAt) {
		d.coordSync()
		return
	}
	if now.After(d.form.deadline) {
		// The attempt stalled: a candidate or the coordinator died, or
		// the attempt was superseded. Distrust the silent parties and
		// retry with a strictly higher round.
		if !d.form.isCoord {
			delete(d.lastHeard, d.form.coord)
		} else {
			for _, m := range d.form.synced {
				if m != d.name && d.form.acks[m] == nil {
					delete(d.lastHeard, m)
				}
			}
		}
		d.startForming()
	}
}

// onPropose gathers a candidate at the coordinator.
func (d *Daemon) onPropose(from string, p *proposeMsg) {
	if p == nil {
		return
	}
	d.noteRound(p.Round)
	if !d.form.active {
		d.startForming()
	}
	// Record the proposal. If our gather already closed (or we defer to a
	// smaller coordinator) the proposer's attempt will time out and retry,
	// and after the next install its heartbeats trigger a follow-up merge.
	d.form.proposals[from] = true
}

// coordSync closes the gather window and sends the view proposal. The
// candidate set is the proposers plus every currently-reachable peer:
// reachable daemons that had no reason to propose still belong in the view
// and will acknowledge the SYNC.
func (d *Daemon) coordSync() {
	now := time.Now()
	for _, p := range d.peers {
		if p == d.name {
			continue
		}
		if heard, ok := d.lastHeard[p]; ok && now.Sub(heard) <= d.cfg.SuspectAfter {
			d.form.proposals[p] = true
		}
	}
	members := make([]string, 0, len(d.form.proposals))
	for m := range d.form.proposals {
		members = append(members, m)
	}
	sort.Strings(members)
	d.form.synced = members
	d.form.gatherAt = time.Time{}
	d.form.deadline = now.Add(d.cfg.InstallTimeout)

	msg := &wireMsg{Kind: kindSync, Sync: &syncMsg{Round: d.form.round, Members: members}}
	for _, m := range members {
		if m != d.name {
			d.sendTo(m, msg)
		}
	}
	// Contribute our own delivery-cut state and freeze.
	d.form.acks[d.name] = d.makeSyncAck()
	d.form.frozen = true
	d.form.ackedRound = d.form.round
	d.form.ackedCoord = d.name
	d.maybeInstall()
}

// makeSyncAck snapshots every old-view message this daemon has seen.
// Under daemon keying, payloads are sealed under the old view's key so the
// coordinator (possibly from another component) relays them opaquely.
func (d *Daemon) makeSyncAck() *syncAckMsg {
	ack := &syncAckMsg{Round: d.form.round, OldView: d.view.ID}
	add := func(m *dataMsg) {
		if d.sec != nil && d.sec.ready && d.sec.suite != nil {
			enc, err := encodeWireTo(wirecodec.GetBuf(), &wireMsg{Kind: kindData, Data: m})
			if err != nil {
				wirecodec.PutBuf(enc)
				return
			}
			// The sealed frame escapes into the ack, so only the inner
			// encoding recycles.
			frame, err := d.sec.suite.Seal(enc)
			wirecodec.PutBuf(enc)
			if err != nil {
				return
			}
			ack.Sealed = append(ack.Sealed, sealedData{Sender: m.Sender, Seq: m.Seq, Frame: frame})
			return
		}
		ack.Msgs = append(ack.Msgs, *m)
	}
	for _, m := range d.retained {
		add(m)
	}
	for _, q := range d.pending {
		for i := 0; i < q.len(); i++ {
			add(q.at(i))
		}
	}
	return ack
}

// onSync: a candidate receives a coordinator's proposal. It acknowledges
// any attempt at least as high as the one it last acknowledged, freezing
// its old view; acknowledging abandons lower attempts.
func (d *Daemon) onSync(from string, s *syncMsg) {
	if s == nil || !slices.Contains(s.Members, d.name) {
		return
	}
	d.noteRound(s.Round)
	if d.form.ackedCoord != "" && attemptLess(s.Round, from, d.form.ackedRound, d.form.ackedCoord) {
		return // stale attempt
	}
	if !d.form.active {
		prev := d.form
		d.form = formingState{
			active:    true,
			round:     prev.round,
			maxRound:  prev.maxRound,
			frozen:    prev.frozen,
			proposals: map[string]bool{d.name: true},
			acks:      map[string]*syncAckMsg{},
		}
		if d.formingSince.IsZero() {
			d.formingSince = time.Now()
		}
	}
	d.form.round = max(d.form.round, s.Round)
	d.form.coord = from
	d.form.isCoord = false
	d.form.gatherAt = time.Time{}
	d.form.deadline = time.Now().Add(d.cfg.InstallTimeout)

	ack := d.makeSyncAck()
	ack.Round = s.Round
	d.form.frozen = true
	d.form.ackedRound = s.Round
	d.form.ackedCoord = from
	d.sendTo(from, &wireMsg{Kind: kindSyncAck, SyncAck: ack})
}

// onSyncAck gathers delivery-cut contributions at the coordinator.
func (d *Daemon) onSyncAck(from string, a *syncAckMsg) {
	if a == nil {
		return
	}
	d.noteRound(a.Round)
	if !d.form.active || !d.form.isCoord || a.Round != d.form.round {
		return
	}
	if !slices.Contains(d.form.synced, from) {
		return
	}
	d.form.acks[from] = a
	d.maybeInstall()
}

func (d *Daemon) maybeInstall() {
	if len(d.form.synced) == 0 || len(d.form.acks) < len(d.form.synced) {
		return
	}
	// Build the per-old-view message unions (plaintext and sealed share
	// one dedup space per old view).
	recovered := make(map[ViewID][]dataMsg)
	recoveredSealed := make(map[ViewID][]sealedData)
	seen := make(map[ViewID]map[msgKey]bool)
	maxEpoch := d.maxEpoch
	for _, ack := range d.form.acks {
		if ack.OldView.Epoch > maxEpoch {
			maxEpoch = ack.OldView.Epoch
		}
		dedup := seen[ack.OldView]
		if dedup == nil {
			dedup = make(map[msgKey]bool)
			seen[ack.OldView] = dedup
		}
		for _, m := range ack.Msgs {
			if dedup[m.key()] {
				continue
			}
			dedup[m.key()] = true
			recovered[ack.OldView] = append(recovered[ack.OldView], m)
		}
		for _, sm := range ack.Sealed {
			k := msgKey{Sender: sm.Sender, Seq: sm.Seq}
			if dedup[k] {
				continue
			}
			dedup[k] = true
			recoveredSealed[ack.OldView] = append(recoveredSealed[ack.OldView], sm)
		}
	}
	view := View{
		ID:      ViewID{Epoch: maxEpoch + 1, Coord: d.name},
		Members: slices.Clone(d.form.synced),
	}
	inst := &installMsg{Round: d.form.round, View: view, Recovered: recovered, RecoveredSealed: recoveredSealed}
	msg := &wireMsg{Kind: kindInstall, Install: inst}
	for _, m := range view.Members {
		if m != d.name {
			d.sendTo(m, msg)
		}
	}
	d.installView(inst)
}

// onInstall: a candidate receives the committed view for the exact attempt
// it last acknowledged. Accepting any other install would break the
// delivery cut it contributed to.
func (d *Daemon) onInstall(from string, inst *installMsg) {
	if inst == nil || !slices.Contains(inst.View.Members, d.name) {
		return
	}
	d.noteRound(inst.Round)
	if !d.form.frozen || from != d.form.ackedCoord || inst.Round != d.form.ackedRound {
		return
	}
	d.installView(inst)
}

// installView finishes the old view (EVS delivery cut), resets per-view
// state, installs the new view, and starts the group state exchange.
func (d *Daemon) installView(inst *installMsg) {
	oldView := d.view.ID

	// Merge the recovered union for our old view and deliver everything
	// that remains, in (LTS, sender) order. The union is complete: every
	// message any same-old-view member saw is in it.
	for _, m := range inst.Recovered[oldView] {
		mm := m
		d.acceptData(&mm)
		d.counters.msgsRecovered.Inc()
	}
	// Sealed recovery entries decrypt under the old view's daemon key,
	// which is still installed at this point.
	if d.sec != nil && d.sec.suite != nil {
		for _, sm := range inst.RecoveredSealed[oldView] {
			plain, err := d.sec.suite.Open(sm.Frame)
			if err != nil {
				continue
			}
			inner, err := decodeWire(plain)
			if err != nil || inner.Kind != kindData || inner.Data == nil {
				continue
			}
			d.acceptData(inner.Data)
			d.counters.msgsRecovered.Inc()
		}
	}
	d.flushOldView()

	// If a previous state exchange was interrupted by this cascaded view
	// change, d.groups is still the not-yet-finalized (empty) map created
	// at the interrupted install — the last finalized topology lives in
	// d.prevGroups. Restore it before snapshotting below, or this daemon
	// would report no local memberships in the new exchange and its
	// clients would silently vanish from their groups cluster-wide.
	if len(d.stateWait) > 0 {
		d.groups = d.prevGroups
	}
	// Group operations delivered during the interrupted exchange sit in
	// bufferedMsgs. Apply them silently so the group state every daemon
	// of our old component reports is identical; clients learn the net
	// effect from the per-client diff when the new exchange finalizes.
	interrupted := d.bufferedMsgs
	d.bufferedMsgs = nil
	for _, m := range interrupted {
		d.applyPayload(m, true)
	}

	// Reset per-view ordering state.
	if inst.View.ID.Epoch > d.maxEpoch {
		d.maxEpoch = inst.View.ID.Epoch
	}
	d.view = inst.View
	d.viewStr = d.view.ID.String()
	d.seq = 0
	d.lts++ // view installation is an event on the clock
	d.seenLTS = make(map[string]uint64)
	d.announcedLTS = 0 // heartbeats from the old view no longer count
	d.stable = make(map[string]uint64)
	d.deliveredSeq = make(map[string]uint64)
	d.resetDelivery()
	d.retained = make(map[msgKey]*dataMsg)
	d.retainedQ, d.retainedHead = nil, 0
	d.contigSeq = make(map[string]uint64)
	d.contigLTS = make(map[string]uint64)
	d.lastNack = make(map[string]time.Time)
	d.form = formingState{maxRound: max(d.form.maxRound, d.form.round)}
	d.formingSince = time.Time{} // the streak ended: a view installed

	// Snapshot groups for view-event computation and begin the state
	// exchange: every view member reports its local group memberships.
	d.prevGroups = d.groups
	d.groups = make(map[string]*group, len(d.prevGroups))
	d.stateWait = make(map[string]bool, len(d.view.Members))
	for _, m := range d.view.Members {
		d.stateWait[m] = true
	}
	d.stateEntries = make(map[string][]stateEntry)
	d.bufferedMsgs = nil
	d.counters.viewsInstalled.Inc()
	d.log.Infof("%s: installed view %s members=%v", d.name, d.view.ID, d.view.Members)
	d.obs.Record(obs.Event{Comp: "spread", Kind: "view-install",
		View:   d.view.ID.String(),
		Detail: fmt.Sprintf("members=%v prev=%s", d.view.Members, oldView)})

	// Under daemon keying, re-key the daemon group before any data (the
	// state exchange below is held until the key is in place).
	if d.sec != nil {
		d.secReset()
	}

	d.broadcastData(payload{Kind: payGroupState, State: d.localStateEntries(oldView)})

	// Messages for the new view may have arrived before the install.
	future := d.futureMsgs
	d.futureMsgs = nil
	for _, m := range future {
		d.onData(m)
	}
}

// flushOldView delivers every still-pending old-view message in global
// (LTS, sender) order, ignoring the horizon: the delivery cut fixed the
// message set.
func (d *Daemon) flushOldView() {
	var all []*dataMsg
	for _, q := range d.pending {
		for i := 0; i < q.len(); i++ {
			all = append(all, q.at(i))
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].LTS != all[j].LTS {
			return all[i].LTS < all[j].LTS
		}
		if all[i].Sender != all[j].Sender {
			return all[i].Sender < all[j].Sender
		}
		return all[i].Seq < all[j].Seq
	})
	for _, m := range all {
		// Per-sender contiguity: the union contains complete prefixes,
		// so sequence gaps cannot occur; guard anyway.
		if m.Seq != d.deliveredSeq[m.Sender]+1 {
			continue
		}
		d.deliver(m)
	}
	d.resetDelivery()
}

// localStateEntries describes this daemon's local clients' memberships for
// the state exchange.
func (d *Daemon) localStateEntries(prevView ViewID) []stateEntry {
	var out []stateEntry
	names := make([]string, 0, len(d.prevGroups))
	for name := range d.prevGroups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := d.prevGroups[name]
		for _, m := range g.members {
			if m.Daemon != d.name {
				continue
			}
			out = append(out, stateEntry{
				Group:    name,
				Member:   m.Name,
				Daemon:   m.Daemon,
				Stamp:    m.Stamp,
				PrevView: prevView,
				ViewSeq:  g.viewSeq,
			})
		}
	}
	return out
}
