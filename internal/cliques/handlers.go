package cliques

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"slices"

	"repro/internal/dh"
	"repro/internal/kga"
	"repro/internal/kga/auth"
)

// HandleMessage feeds a protocol message to the engine and advances the
// in-progress agreement. Messages that do not match the current protocol
// state or target epoch are rejected with ErrBadState / ErrBadEpoch; the
// secure layer treats these as fatal for the current attempt and re-drives
// the agreement (cascading handling).
func (m *Member) HandleMessage(msg kga.Message) (kga.Result, error) {
	switch msg.Type {
	case MsgJoinSeed:
		return m.onJoinSeed(msg)
	case MsgJoinBcast:
		return m.onJoinBcast(msg)
	case MsgLeaveBcast:
		return m.onLeaveBcast(msg)
	case MsgMergeChain:
		return m.onMergeChain(msg)
	case MsgMergeFactorReq:
		return m.onMergeFactorReq(msg)
	case MsgMergeFactorResp:
		return m.onMergeFactorResp(msg)
	case MsgMergeBcast:
		return m.onMergeBcast(msg)
	default:
		return kga.Result{}, fmt.Errorf("%w: unknown message type %d", ErrBadState, msg.Type)
	}
}

// onJoinSeed: the joiner receives the partial set from the old controller
// (JOIN step 2): add our share to every partial, authenticate each entry to
// its owner under the pairwise long-term key, compute our key, broadcast.
func (m *Member) onJoinSeed(msg kga.Message) (kga.Result, error) {
	if m.st != stAwaitSeed || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected join seed", ErrBadState)
	}
	var body joinSeedBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if body.Joiner != m.name {
		return kga.Result{}, fmt.Errorf("%w: seed addressed to %s", ErrBadState, body.Joiner)
	}
	old := m.pend.members[:len(m.pend.members)-1]
	if !slices.Equal(body.OldMembers, old) {
		return kga.Result{}, fmt.Errorf("%w: seed members %v != event members %v", ErrBadState, body.OldMembers, old)
	}
	controller := old[len(old)-1]
	if msg.From != controller {
		return kga.Result{}, fmt.Errorf("%w: seed from %s, controller is %s", ErrBadMAC, msg.From, controller)
	}
	for _, name := range old {
		p, ok := body.Partials[name]
		if !ok {
			return kga.Result{}, fmt.Errorf("%w: missing partial for %s", ErrBadState, name)
		}
		if err := m.g.CheckElement(p); err != nil {
			return kga.Result{}, fmt.Errorf("partial for %s: %w", name, err)
		}
	}
	if err := m.g.CheckElement(body.PNew); err != nil {
		return kga.Result{}, fmt.Errorf("seed partial: %w", err)
	}

	// Pairwise key with the controller: verifies the seed and later
	// authenticates the controller's broadcast entry. This is the first
	// of the joiner's n-1 long-term key computations (Table 2).
	kc, err := m.peers.PairwiseKey(controller, m.x, m.counter, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	if !auth.MACOK(kc.Bytes(), body.MAC, joinSeedCanon(&body)) {
		return kga.Result{}, ErrBadMAC
	}

	share, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}

	// The rest of the step is one batch: "encryption of session key"
	// n-1 times (our share folded into each member's partial), the
	// remaining n-2 long-term key computations, and the new session key,
	// the seed raised to our share (Table 2, 1).
	others := old[:len(old)-1]
	jobs := make([]dh.ExpJob, 0, 2*len(old))
	for _, name := range old {
		jobs = append(jobs, dh.ExpJob{Base: body.Partials[name], Exp: share, Label: dh.OpKeyEncrypt})
	}
	lts, err := m.pairwiseJobs(others)
	if err != nil {
		return kga.Result{}, err
	}
	jobs = append(jobs, lts...)
	jobs = append(jobs, dh.ExpJob{Base: body.PNew, Exp: share, Label: dh.OpSessionKey})
	out := m.g.ExpBatch(jobs, m.counter)
	entries := make(map[string]*big.Int, len(old)+1)
	macs := make(map[string][]byte, len(old))
	for i, name := range old {
		k := kc
		if name != controller {
			k = out[len(old)+i]
		}
		entries[name] = out[i]
		macs[name] = auth.MACTag(k.Bytes(), entryCanon(m.name, name, out[i], body.TargetEpoch))
	}
	// Our own partial is the seed value (it excludes our share).
	entries[m.name] = body.PNew
	secret := out[len(out)-1]

	bcast := joinBcastBody{
		Members:     slices.Clone(m.pend.members),
		Entries:     entries,
		EntryMACs:   macs,
		SenderPub:   m.pub,
		TargetEpoch: body.TargetEpoch,
	}
	enc, err := m.encBody(MsgJoinBcast, &bcast)
	if err != nil {
		return kga.Result{}, err
	}

	members := m.pend.members
	// Adopt the base group's epoch numbering.
	m.key = &kga.GroupKey{Secret: secret, Epoch: body.TargetEpoch - 1, Members: nil}
	m.commit(members, share, entries, secret, m.name, nil)
	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgJoinBcast, From: m.name, To: "", Body: enc})
	res.Key = m.key
	return res, nil
}

// onJoinBcast: an existing member receives the joiner's broadcast (JOIN
// step 3): verify our entry, raise it to our share, commit.
func (m *Member) onJoinBcast(msg kga.Message) (kga.Result, error) {
	if m.st != stAwaitJoinBcast || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected join broadcast", ErrBadState)
	}
	var body joinBcastBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if body.TargetEpoch != m.pend.targetEpoch {
		return kga.Result{}, ErrBadEpoch
	}
	if !slices.Equal(body.Members, m.pend.members) {
		return kga.Result{}, fmt.Errorf("%w: broadcast members mismatch", ErrBadState)
	}
	joiner := m.pend.joiner
	if msg.From != joiner {
		return kga.Result{}, fmt.Errorf("%w: join broadcast from %s, expected %s", ErrBadMAC, msg.From, joiner)
	}
	entry, ok := body.Entries[m.name]
	if !ok {
		return kga.Result{}, fmt.Errorf("%w: no entry for %s", ErrBadState, m.name)
	}
	for name, e := range body.Entries {
		if err := m.g.CheckElement(e); err != nil {
			return kga.Result{}, fmt.Errorf("entry for %s: %w", name, err)
		}
	}

	// If we were the old controller we refreshed our share in step 1 and
	// commit the refreshed value now.
	share := m.share
	if m.pend.newShare != nil {
		share = m.pend.newShare
	}
	// The session key and one long-term key computation to authenticate
	// our entry as coming from the joiner run as one batch (the old
	// controller reuses the key it derived when building the seed); the
	// MAC is checked before the key is committed.
	jobs := []dh.ExpJob{{Base: entry, Exp: share, Label: dh.OpSessionKey}}
	kj := m.pend.ltJoiner
	if kj == nil {
		lt, err := m.peers.PairwiseJob(joiner, m.x, dh.OpLongTermKey)
		if err != nil {
			return kga.Result{}, err
		}
		jobs = append(jobs, lt)
	}
	out := m.g.ExpBatch(jobs, m.counter)
	if kj == nil {
		kj = out[1].Bytes()
	}
	ownMAC := body.EntryMACs[m.name]
	if !auth.MACOK(kj, ownMAC, entryCanon(joiner, m.name, entry, body.TargetEpoch)) {
		return kga.Result{}, ErrBadMAC
	}
	m.commit(body.Members, share, body.Entries, out[0], joiner, ownMAC)
	return kga.Result{Key: m.key}, nil
}

// onLeaveBcast: a surviving non-controller member receives the refreshed
// partial set after LEAVE/REFRESH.
func (m *Member) onLeaveBcast(msg kga.Message) (kga.Result, error) {
	if m.st != stAwaitLeaveBcast || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected leave broadcast", ErrBadState)
	}
	var body leaveBcastBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if body.TargetEpoch != m.pend.targetEpoch {
		return kga.Result{}, ErrBadEpoch
	}
	if !slices.Equal(body.Members, m.pend.members) {
		return kga.Result{}, fmt.Errorf("%w: broadcast members mismatch", ErrBadState)
	}
	controller := m.pend.members[len(m.pend.members)-1]
	if msg.From != controller {
		return kga.Result{}, fmt.Errorf("%w: leave broadcast from %s, controller is %s", ErrBadMAC, msg.From, controller)
	}
	if !auth.MACOK(groupMACKey(m.key.Secret), body.MAC, leaveCanon(&body)) {
		return kga.Result{}, ErrBadMAC
	}
	entry, ok := body.Entries[m.name]
	if !ok {
		return kga.Result{}, fmt.Errorf("%w: no entry for %s", ErrBadState, m.name)
	}
	for name, e := range body.Entries {
		if err := m.g.CheckElement(e); err != nil {
			return kga.Result{}, fmt.Errorf("entry for %s: %w", name, err)
		}
	}
	secret := m.g.Exp(entry, m.share, m.counter, dh.OpSessionKey)
	m.commit(body.Members, m.share, body.Entries, secret, controller, nil)
	return kga.Result{Key: m.key}, nil
}

// onMergeChain: a merging member receives the accumulating partial secret
// (MERGE step 2). Intermediate members fold in their share and forward; the
// last member broadcasts the factor-out request without adding its share.
func (m *Member) onMergeChain(msg kga.Message) (kga.Result, error) {
	if m.st != stAwaitChain || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected merge chain message", ErrBadState)
	}
	var body mergeChainBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if !slices.Equal(body.Members, m.pend.members) || !slices.Equal(body.Merged, m.pend.merged) {
		return kga.Result{}, fmt.Errorf("%w: chain membership mismatch", ErrBadState)
	}
	pos := slices.Index(body.Merged, m.name)
	if pos < 0 || body.Pos != pos {
		return kga.Result{}, fmt.Errorf("%w: chain position mismatch", ErrBadState)
	}
	if err := m.g.CheckElement(body.U); err != nil {
		return kga.Result{}, fmt.Errorf("chain value: %w", err)
	}
	// Authenticate the chain hop: the expected sender is the previous
	// merging member, or the old controller for the first hop.
	var expectFrom string
	if pos == 0 {
		old := body.Members[:len(body.Members)-len(body.Merged)]
		expectFrom = old[len(old)-1]
	} else {
		expectFrom = body.Merged[pos-1]
	}
	if msg.From != expectFrom {
		return kga.Result{}, fmt.Errorf("%w: chain hop from %s, expected %s", ErrBadMAC, msg.From, expectFrom)
	}
	kp, err := m.peers.PairwiseKey(expectFrom, m.x, m.counter, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	if !auth.MACOK(kp.Bytes(), body.MAC, mergeChainCanon(&body)) {
		return kga.Result{}, ErrBadMAC
	}

	share, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}
	m.pend.newShare = share
	m.pend.targetEpoch = body.TargetEpoch

	if m.name != body.Merged[len(body.Merged)-1] {
		// Intermediate member: fold in our share and forward, in one
		// batch with the pairwise key that authenticates the next hop.
		next := body.Merged[pos+1]
		lt, err := m.peers.PairwiseJob(next, m.x, dh.OpLongTermKey)
		if err != nil {
			return kga.Result{}, err
		}
		out := m.g.ExpBatch([]dh.ExpJob{{Base: body.U, Exp: share, Label: dh.OpKeyEncrypt}, lt}, m.counter)
		u, kn := out[0], out[1].Bytes()
		fwd := mergeChainBody{
			Members:     body.Members,
			Merged:      body.Merged,
			Pos:         pos + 1,
			U:           u,
			SenderPub:   m.pub,
			TargetEpoch: body.TargetEpoch,
		}
		fwd.MAC = auth.MACTag(kn, mergeChainCanon(&fwd))
		enc, err := m.encBody(MsgMergeChain, &fwd)
		if err != nil {
			return kga.Result{}, err
		}
		m.setState(stAwaitMergeBcast)
		var res kga.Result
		res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgMergeChain, From: m.name, To: next, Body: enc})
		return res, nil
	}

	// Last merging member (MERGE step 3): broadcast the partial secret
	// without adding our share, then collect factored-out responses.
	m.pend.u = body.U
	m.pend.factors = make(map[string]*big.Int)
	m.setState(stCollectFactors)

	req := mergeFactorReqBody{
		Members:     body.Members,
		Merged:      body.Merged,
		U:           body.U,
		SenderPub:   m.pub,
		TargetEpoch: body.TargetEpoch,
		MACs:        make(map[string][]byte, len(body.Members)-1),
	}
	base := mergeFactorReqCanon(&req)
	others := body.Members[:len(body.Members)-1] // we are last in the list
	lts, err := m.pairwiseJobs(others)
	if err != nil {
		return kga.Result{}, err
	}
	keys := m.g.ExpBatch(lts, m.counter)
	for i, name := range others {
		req.MACs[name] = auth.MACTag(keys[i].Bytes(), auth.Canon(name), base)
	}
	enc, err := m.encBody(MsgMergeFactorReq, &req)
	if err != nil {
		return kga.Result{}, err
	}
	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgMergeFactorReq, From: m.name, To: "", Body: enc})
	return res, nil
}

func mergeFactorReqCanon(b *mergeFactorReqBody) []byte {
	return auth.Canon("merge-factor-req", b.Members, b.Merged, b.U, b.SenderPub, b.TargetEpoch)
}

// onMergeFactorReq: every member except the last merging one factors its
// share out of the broadcast partial secret and returns the result (MERGE
// step 4).
func (m *Member) onMergeFactorReq(msg kga.Message) (kga.Result, error) {
	if (m.st != stAwaitFactorReq && m.st != stAwaitMergeBcast) || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected factor request", ErrBadState)
	}
	var body mergeFactorReqBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if !slices.Equal(body.Members, m.pend.members) || !slices.Equal(body.Merged, m.pend.merged) {
		return kga.Result{}, fmt.Errorf("%w: factor request membership mismatch", ErrBadState)
	}
	last := body.Merged[len(body.Merged)-1]
	if msg.From != last {
		return kga.Result{}, fmt.Errorf("%w: factor request from %s, expected %s", ErrBadMAC, msg.From, last)
	}
	if m.name == last {
		return kga.Result{}, fmt.Errorf("%w: factor request delivered to its sender", ErrBadState)
	}
	if err := m.g.CheckElement(body.U); err != nil {
		return kga.Result{}, fmt.Errorf("factor base: %w", err)
	}
	// Our effective share for the new group: base-group members keep
	// their committed share (the old controller its refreshed one);
	// merging members use the share they generated on the chain.
	share := m.share
	if m.pend.newShare != nil {
		share = m.pend.newShare
	}
	inv, err := m.g.InverseQ(share)
	if err != nil {
		return kga.Result{}, err
	}
	// The long-term key that authenticates the request and the factored
	// partial run as one batch; the MAC is checked before anything is
	// sent.
	lt, err := m.peers.PairwiseJob(last, m.x, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	out := m.g.ExpBatch([]dh.ExpJob{lt, {Base: body.U, Exp: inv, Label: dh.OpShareRemove}}, m.counter)
	kl, w := out[0].Bytes(), out[1]
	if !auth.MACOK(kl, body.MACs[m.name], auth.Canon(m.name), mergeFactorReqCanon(&body)) {
		return kga.Result{}, ErrBadMAC
	}

	m.pend.targetEpoch = body.TargetEpoch
	m.setState(stAwaitMergeBcast)

	resp := mergeFactorRespBody{
		W:           w,
		SenderPub:   m.pub,
		TargetEpoch: body.TargetEpoch,
	}
	resp.MAC = auth.MACTag(kl, mergeFactorRespCanon(m.name, &resp))
	enc, err := m.encBody(MsgMergeFactorResp, &resp)
	if err != nil {
		return kga.Result{}, err
	}
	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgMergeFactorResp, From: m.name, To: last, Body: enc})
	return res, nil
}

func mergeFactorRespCanon(from string, b *mergeFactorRespBody) []byte {
	return auth.Canon("merge-factor-resp", from, b.W, b.SenderPub, b.TargetEpoch)
}

// onMergeFactorResp: the last merging member collects factored partials;
// when all n-1 have arrived it folds in its share, computes the key, and
// broadcasts the full partial set (MERGE step 5).
func (m *Member) onMergeFactorResp(msg kga.Message) (kga.Result, error) {
	if m.st != stCollectFactors || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected factor response", ErrBadState)
	}
	var body mergeFactorRespBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if body.TargetEpoch != m.pend.targetEpoch {
		return kga.Result{}, ErrBadEpoch
	}
	if !slices.Contains(m.pend.members, msg.From) || msg.From == m.name {
		return kga.Result{}, fmt.Errorf("%w: factor response from non-member %s", ErrBadState, msg.From)
	}
	if err := m.g.CheckElement(body.W); err != nil {
		return kga.Result{}, fmt.Errorf("factored partial: %w", err)
	}
	kp, err := m.peers.PairwiseKey(msg.From, m.x, m.counter, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	if !auth.MACOK(kp.Bytes(), body.MAC, mergeFactorRespCanon(msg.From, &body)) {
		return kga.Result{}, ErrBadMAC
	}
	m.pend.factors[msg.From] = body.W
	if len(m.pend.factors) < len(m.pend.members)-1 {
		return kga.Result{}, nil
	}

	// All responses in: build the final partial set. The n-1 folds, the
	// session key and the n-1 long-term keys that authenticate the
	// entries are independent and run as one batch.
	share := m.pend.newShare
	others := m.pend.members[:len(m.pend.members)-1] // we are last in the list
	jobs := make([]dh.ExpJob, 0, 2*len(others)+1)
	for _, name := range others {
		jobs = append(jobs, dh.ExpJob{Base: m.pend.factors[name], Exp: share, Label: dh.OpKeyEncrypt})
	}
	lts, err := m.pairwiseJobs(others)
	if err != nil {
		return kga.Result{}, err
	}
	jobs = append(jobs, lts...)
	jobs = append(jobs, dh.ExpJob{Base: m.pend.u, Exp: share, Label: dh.OpSessionKey})
	out := m.g.ExpBatch(jobs, m.counter)
	entries := make(map[string]*big.Int, len(m.pend.members))
	macs := make(map[string][]byte, len(others))
	for i, name := range others {
		entries[name] = out[i]
		macs[name] = auth.MACTag(out[len(others)+i].Bytes(), entryCanon(m.name, name, out[i], m.pend.targetEpoch))
	}
	entries[m.name] = m.pend.u
	secret := out[len(out)-1]

	bcast := mergeBcastBody{
		Members:     slices.Clone(m.pend.members),
		Entries:     entries,
		EntryMACs:   macs,
		SenderPub:   m.pub,
		TargetEpoch: m.pend.targetEpoch,
	}
	enc, err := m.encBody(MsgMergeBcast, &bcast)
	if err != nil {
		return kga.Result{}, err
	}

	members := m.pend.members
	epoch := m.pend.targetEpoch
	m.key = &kga.GroupKey{Secret: secret, Epoch: epoch - 1}
	m.commit(members, share, entries, secret, m.name, nil)
	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgMergeBcast, From: m.name, To: "", Body: enc})
	res.Key = m.key
	return res, nil
}

// onMergeBcast: every member receives the final partial set and computes
// the new key (MERGE step 6).
func (m *Member) onMergeBcast(msg kga.Message) (kga.Result, error) {
	if m.st != stAwaitMergeBcast || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected merge broadcast", ErrBadState)
	}
	var body mergeBcastBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if body.TargetEpoch != m.pend.targetEpoch {
		return kga.Result{}, ErrBadEpoch
	}
	if !slices.Equal(body.Members, m.pend.members) {
		return kga.Result{}, fmt.Errorf("%w: merge broadcast membership mismatch", ErrBadState)
	}
	last := m.pend.merged[len(m.pend.merged)-1]
	if msg.From != last {
		return kga.Result{}, fmt.Errorf("%w: merge broadcast from %s, expected %s", ErrBadMAC, msg.From, last)
	}
	entry, ok := body.Entries[m.name]
	if !ok {
		return kga.Result{}, fmt.Errorf("%w: no entry for %s", ErrBadState, m.name)
	}
	for name, e := range body.Entries {
		if err := m.g.CheckElement(e); err != nil {
			return kga.Result{}, fmt.Errorf("entry for %s: %w", name, err)
		}
	}
	share := m.share
	if m.pend.newShare != nil {
		share = m.pend.newShare
	}
	// The long-term key that authenticates our entry and the session key
	// run as one batch; the MAC is checked before the key is committed.
	lt, err := m.peers.PairwiseJob(last, m.x, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	out := m.g.ExpBatch([]dh.ExpJob{lt, {Base: entry, Exp: share, Label: dh.OpSessionKey}}, m.counter)
	ownMAC := body.EntryMACs[m.name]
	if !auth.MACOK(out[0].Bytes(), ownMAC, entryCanon(last, m.name, entry, body.TargetEpoch)) {
		return kga.Result{}, ErrBadMAC
	}
	secret := out[1]
	// Merging members adopt the base group's epoch numbering.
	m.key = &kga.GroupKey{Secret: secret, Epoch: body.TargetEpoch - 1}
	m.commit(body.Members, share, body.Entries, secret, last, ownMAC)
	return kga.Result{Key: m.key}, nil
}

// pairwiseJobs returns the batch jobs deriving the long-term pairwise keys
// with peers, in peers' order.
func (m *Member) pairwiseJobs(peers []string) ([]dh.ExpJob, error) {
	jobs := make([]dh.ExpJob, len(peers))
	for i, name := range peers {
		lt, err := m.peers.PairwiseJob(name, m.x, dh.OpLongTermKey)
		if err != nil {
			return nil, err
		}
		jobs[i] = lt
	}
	return jobs, nil
}
