package cliques

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"slices"

	"repro/internal/dh"
	"repro/internal/kga"
	"repro/internal/kga/auth"
)

// Protocol state machine states.
type state int

const (
	stIdle state = iota
	stAwaitSeed
	stAwaitJoinBcast
	stAwaitLeaveBcast
	stAwaitChain
	stAwaitFactorReq
	stCollectFactors
	stAwaitMergeBcast
)

// Errors returned by the protocol engine. ErrBadState and ErrBadEpoch wrap
// kga.ErrRetry: the message may become consumable after local progress.
var (
	ErrBadState   = fmt.Errorf("cliques: message does not match protocol state (%w)", kga.ErrRetry)
	ErrBadMAC     = errors.New("cliques: message authentication failed")
	ErrBadEpoch   = fmt.Errorf("cliques: message targets a different epoch (%w)", kga.ErrRetry)
	ErrNotMember  = errors.New("cliques: local member not in the new membership")
	ErrBadEvent   = errors.New("cliques: malformed membership event")
	ErrNoGroup    = errors.New("cliques: no established group context")
	ErrStateAudit = errors.New("cliques: cached partial state failed inheritance audit")
)

// Member is one participant's Cliques protocol engine. It is purely
// computational (no I/O): the secure layer feeds it events and messages and
// transmits the messages it returns. Member is not safe for concurrent use;
// the secure layer serializes access (the paper's event-handling loop).
type Member struct {
	name    string
	g       *dh.Group
	peers   *auth.Peers // peers' long-term keys, each value validated once
	counter *dh.Counter

	x   *big.Int // long-term private key
	pub *big.Int // long-term public key alpha^x

	// Committed group context.
	members  []string
	share    *big.Int
	partials map[string]*big.Int
	key      *kga.GroupKey
	// prevController is the member whose broadcast established the
	// current partial set; it authenticated our cached own-entry.
	prevController string
	ownEntryMAC    []byte

	st   state
	pend *pending

	// trace, when set (kga.TraceSetter), receives state-machine
	// transitions for the observability layer.
	trace func(kind, detail string)
	// causal, when set (kga.CausalSetter), stamps encoded bodies with
	// HLCs and records happens-before edges for received ones.
	causal kga.Causal
}

type pending struct {
	targetEpoch uint64
	members     []string
	joined      []string
	left        []string
	refresh     bool

	newShare *big.Int // share to commit on completion

	// join (controller side)
	joiner string
	// ltJoiner caches the pairwise long-term key with the joiner so the
	// broadcast verification does not pay a second exponentiation
	// (Table 2 charges the controller exactly one long-term computation).
	ltJoiner []byte
	// merge
	merged  []string
	u       *big.Int
	factors map[string]*big.Int
}

// Option configures a Member.
type Option func(*Member)

// WithCounter attaches an exponentiation counter (for Tables 2-4).
func WithCounter(c *dh.Counter) Option {
	return func(m *Member) { m.counter = c }
}

// NewMember creates a Cliques protocol engine for the named member. The
// directory resolves peers' long-term public keys (member certification is
// out of scope per the paper; the secure layer populates the directory from
// announcements).
func NewMember(name string, g *dh.Group, dir kga.Directory, opts ...Option) (*Member, error) {
	x, err := g.NewShare(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("cliques: long-term key: %w", err)
	}
	m := &Member{
		name:  name,
		g:     g,
		peers: auth.NewPeers(g, dir),
		x:     x,
	}
	for _, o := range opts {
		o(m)
	}
	// The long-term public key is not charged to any operation: it is
	// computed once at member creation, like loading a certificate.
	m.pub = g.PowG(x, nil, "")
	return m, nil
}

var _ kga.Protocol = (*Member)(nil)

// Factory builds a Cliques engine for kga's protocol registry.
func Factory(member string, g *dh.Group, dir kga.Directory, counter *dh.Counter) (kga.Protocol, error) {
	return NewMember(member, g, dir, WithCounter(counter))
}

// The protocol registry is one of the accepted uses of init (pluggable
// hooks): importing the package makes "cliques" selectable per group.
func init() {
	if err := kga.Register(ProtoName, Factory); err != nil {
		panic(err)
	}
}

// Proto returns the registered protocol name.
func (m *Member) Proto() string { return ProtoName }

// Name returns the member's name.
func (m *Member) Name() string { return m.name }

// PubKey returns the member's long-term public key for directory
// registration.
func (m *Member) PubKey() *big.Int { return new(big.Int).Set(m.pub) }

// Key returns the current committed group key, or nil before the first
// agreement completes.
func (m *Member) Key() *kga.GroupKey { return m.key }

// Members returns the committed member list, oldest first.
func (m *Member) Members() []string { return slices.Clone(m.members) }

// Controller returns the current committed controller (newest member).
func (m *Member) Controller() string {
	if len(m.members) == 0 {
		return ""
	}
	return m.members[len(m.members)-1]
}

// InProgress reports whether a key agreement is pending.
func (m *Member) InProgress() bool { return m.st != stIdle }

// Reset aborts any in-progress agreement, discarding pending state. The
// committed group context is untouched. The secure layer calls this when a
// cascading membership event interrupts an agreement (Section 5.4).
func (m *Member) Reset() {
	m.setState(stIdle)
	m.pend = nil
}

// Dissolve discards the committed group context entirely (used when this
// member is removed from the group or re-initialized after a partition).
func (m *Member) Dissolve() {
	m.Reset()
	m.members = nil
	m.share = nil
	m.partials = nil
	m.key = nil
	m.prevController = ""
	m.ownEntryMAC = nil
	m.peers.Prune(nil)
}

func (m *Member) nextEpoch() uint64 {
	if m.key == nil {
		return 1
	}
	return m.key.Epoch + 1
}

// HandleEvent feeds a membership event to the protocol engine. All members
// of the new group must be fed the same event. Any in-progress agreement
// must be Reset first; HandleEvent returns ErrBadState otherwise.
func (m *Member) HandleEvent(ev kga.Event) (kga.Result, error) {
	if m.st != stIdle {
		return kga.Result{}, fmt.Errorf("%w: event %v during in-progress agreement", ErrBadState, ev.Type)
	}
	if m.trace != nil {
		m.trace("op", fmt.Sprintf("%v members=%v joined=%v left=%v", ev.Type, ev.Members, ev.Joined, ev.Left))
	}
	switch ev.Type {
	case kga.EvFound:
		return m.evFound(ev)
	case kga.EvJoin:
		return m.evJoin(ev)
	case kga.EvLeave:
		return m.evLeave(ev)
	case kga.EvRefresh:
		return m.evRefresh(ev)
	case kga.EvMerge:
		return m.evMerge(ev)
	default:
		return kga.Result{}, fmt.Errorf("%w: unknown type %d", ErrBadEvent, ev.Type)
	}
}

func (m *Member) evFound(ev kga.Event) (kga.Result, error) {
	if len(ev.Members) != 1 || ev.Members[0] != m.name {
		return kga.Result{}, fmt.Errorf("%w: found event must contain exactly the local member", ErrBadEvent)
	}
	share, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}
	m.members = []string{m.name}
	m.share = share
	m.partials = map[string]*big.Int{m.name: new(big.Int).Set(m.g.G)}
	secret := m.g.PowG(share, m.counter, dh.OpSessionKey)
	m.key = &kga.GroupKey{Secret: secret, Epoch: m.nextEpochFounding(), Members: []string{m.name}}
	m.prevController = m.name
	m.ownEntryMAC = nil
	return kga.Result{Key: m.key}, nil
}

// nextEpochFounding keeps epochs monotonic across dissolve/re-found cycles.
func (m *Member) nextEpochFounding() uint64 {
	if m.key == nil {
		return 1
	}
	return m.key.Epoch + 1
}

func (m *Member) evJoin(ev kga.Event) (kga.Result, error) {
	if len(ev.Joined) != 1 || len(ev.Members) < 2 {
		return kga.Result{}, fmt.Errorf("%w: join needs exactly one joiner", ErrBadEvent)
	}
	joiner := ev.Joined[0]
	if ev.Members[len(ev.Members)-1] != joiner {
		return kga.Result{}, fmt.Errorf("%w: joiner must be last in member list", ErrBadEvent)
	}
	if !slices.Contains(ev.Members, m.name) {
		return kga.Result{}, ErrNotMember
	}
	old := ev.Members[:len(ev.Members)-1]

	if m.name == joiner {
		m.pend = &pending{
			members: slices.Clone(ev.Members),
			joined:  slices.Clone(ev.Joined),
			joiner:  joiner,
		}
		m.setState(stAwaitSeed)
		return kga.Result{}, nil
	}

	if err := m.requireGroup(old); err != nil {
		return kga.Result{}, err
	}
	m.pend = &pending{
		targetEpoch: m.nextEpoch(),
		members:     slices.Clone(ev.Members),
		joined:      slices.Clone(ev.Joined),
		joiner:      joiner,
	}
	m.setState(stAwaitJoinBcast)

	if m.name != old[len(old)-1] {
		// Not the controller: just wait for the joiner's broadcast.
		return kga.Result{}, nil
	}

	// Controller (JOIN step 1): refresh our share, fold the refresh into
	// every other member's partial, and hand the set to the joiner. One
	// batch holds the n-2 refreshes (our own partial excludes our share,
	// so the refresh does not touch it), the joiner's seed partial — the
	// refreshed old group secret g^(N_1...N_(n-1)), for a controller
	// total of n-1 "update key share" (Table 2) — and the pairwise
	// long-term key with the joiner that authenticates the seed ("long
	// term key computation with new member", 1).
	f, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}
	newShare := mulQ(m.g, m.share, f)
	m.pend.newShare = newShare
	lt, err := m.peers.PairwiseJob(joiner, m.x, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	others := old[:len(old)-1]
	jobs := make([]dh.ExpJob, 0, len(old)+1)
	for _, name := range others {
		jobs = append(jobs, dh.ExpJob{Base: m.partials[name], Exp: f, Label: dh.OpShareUpdate})
	}
	jobs = append(jobs, dh.ExpJob{Base: m.partials[m.name], Exp: newShare, Label: dh.OpShareUpdate}, lt)
	out := m.g.ExpBatch(jobs, m.counter)
	partials := make(map[string]*big.Int, len(old))
	for i, name := range others {
		partials[name] = out[i]
	}
	partials[m.name] = new(big.Int).Set(m.partials[m.name])
	pNew := out[len(others)]
	kc := out[len(others)+1].Bytes()
	m.pend.ltJoiner = kc
	body := joinSeedBody{
		OldMembers:  slices.Clone(old),
		Joiner:      joiner,
		Partials:    partials,
		PNew:        pNew,
		SenderPub:   m.pub,
		TargetEpoch: m.pend.targetEpoch,
	}
	body.MAC = auth.MACTag(kc, joinSeedCanon(&body))
	enc, err := m.encBody(MsgJoinSeed, &body)
	if err != nil {
		return kga.Result{}, err
	}
	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgJoinSeed, From: m.name, To: joiner, Body: enc})
	return res, nil
}

func joinSeedCanon(b *joinSeedBody) []byte {
	return auth.Canon("join-seed", b.OldMembers, b.Joiner, b.Partials, b.PNew, b.SenderPub, b.TargetEpoch)
}

func (m *Member) evLeave(ev kga.Event) (kga.Result, error) {
	if len(ev.Left) == 0 || len(ev.Members) == 0 {
		return kga.Result{}, fmt.Errorf("%w: leave needs departed members and survivors", ErrBadEvent)
	}
	if !slices.Contains(ev.Members, m.name) {
		return kga.Result{}, ErrNotMember
	}
	return m.startRekey(ev.Members, ev.Left, false)
}

func (m *Member) evRefresh(ev kga.Event) (kga.Result, error) {
	if !slices.Contains(ev.Members, m.name) {
		return kga.Result{}, ErrNotMember
	}
	return m.startRekey(ev.Members, nil, true)
}

// startRekey implements LEAVE and REFRESH: the acting controller (newest
// survivor) refreshes its share and broadcasts updated partials.
func (m *Member) startRekey(survivors, left []string, refresh bool) (kga.Result, error) {
	if err := m.requireGroupSubset(survivors, left); err != nil {
		return kga.Result{}, err
	}
	controller := survivors[len(survivors)-1]
	m.pend = &pending{
		targetEpoch: m.nextEpoch(),
		members:     slices.Clone(survivors),
		left:        slices.Clone(left),
		refresh:     refresh,
	}
	if m.name != controller {
		m.setState(stAwaitLeaveBcast)
		return kga.Result{}, nil
	}

	// Acting controller. Audit the state the new key will be derived
	// from — one fixed exponentiation per leave/refresh, the "remove
	// long term key with previous controller" line of Table 3. When the
	// current partial set was broadcast by another member (e.g. the
	// departed controller), re-derive the pairwise long-term key with
	// that member and re-verify our cached entry's MAC; when we broadcast
	// it ourselves, revalidate our long-term key pair instead (a nil
	// base is the generator).
	audit := dh.ExpJob{Exp: m.x, Label: dh.OpShareRemove}
	if m.prevController != m.name {
		var err error
		if audit, err = m.peers.PairwiseJob(m.prevController, m.x, dh.OpShareRemove); err != nil {
			return kga.Result{}, err
		}
	}
	f, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}
	newShare := mulQ(m.g, m.share, f)

	// The audit, the new session key and the fresh factor folded into
	// every survivor's partial but our own run as one batch; the audit
	// verdict is checked before anything is committed or sent.
	others := survivors[:len(survivors)-1]
	jobs := []dh.ExpJob{audit, {Base: m.partials[m.name], Exp: newShare, Label: dh.OpSessionKey}}
	for _, name := range others {
		jobs = append(jobs, dh.ExpJob{Base: m.partials[name], Exp: f, Label: dh.OpShareUpdate})
	}
	out := m.g.ExpBatch(jobs, m.counter)
	if m.prevController != m.name {
		if m.ownEntryMAC != nil && !auth.MACOK(out[0].Bytes(), m.ownEntryMAC, m.ownEntryCanon(m.prevController)) {
			return kga.Result{}, ErrStateAudit
		}
	} else if out[0].Cmp(m.pub) != 0 {
		return kga.Result{}, ErrStateAudit
	}
	secret := out[1]
	entries := make(map[string]*big.Int, len(survivors))
	for i, name := range others {
		entries[name] = out[2+i]
	}
	entries[m.name] = new(big.Int).Set(m.partials[m.name])

	body := leaveBcastBody{
		Members:     slices.Clone(survivors),
		Left:        slices.Clone(left),
		Refresh:     refresh,
		Entries:     entries,
		TargetEpoch: m.pend.targetEpoch,
	}
	body.MAC = auth.MACTag(groupMACKey(m.key.Secret), leaveCanon(&body))
	enc, err := m.encBody(MsgLeaveBcast, &body)
	if err != nil {
		return kga.Result{}, err
	}

	// Commit locally: the controller completes immediately.
	m.commit(survivors, newShare, entries, secret, m.name, nil)
	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgLeaveBcast, From: m.name, To: "", Body: enc})
	res.Key = m.key
	return res, nil
}

func leaveCanon(b *leaveBcastBody) []byte {
	refresh := 0
	if b.Refresh {
		refresh = 1
	}
	return auth.Canon("leave-bcast", b.Members, b.Left, refresh, b.Entries, b.TargetEpoch)
}

func (m *Member) evMerge(ev kga.Event) (kga.Result, error) {
	if len(ev.Joined) == 0 || len(ev.Members) <= len(ev.Joined) {
		return kga.Result{}, fmt.Errorf("%w: merge needs joiners and a base group", ErrBadEvent)
	}
	if !slices.Equal(ev.Members[len(ev.Members)-len(ev.Joined):], ev.Joined) {
		return kga.Result{}, fmt.Errorf("%w: merged members must be the tail of the member list", ErrBadEvent)
	}
	if !slices.Contains(ev.Members, m.name) {
		return kga.Result{}, ErrNotMember
	}
	old := ev.Members[:len(ev.Members)-len(ev.Joined)]

	if slices.Contains(ev.Joined, m.name) {
		// Merging member: any previous group context (e.g. from the
		// other side of a healed partition) is superseded.
		m.pend = &pending{
			members: slices.Clone(ev.Members),
			joined:  slices.Clone(ev.Joined),
			merged:  slices.Clone(ev.Joined),
		}
		m.setState(stAwaitChain)
		return kga.Result{}, nil
	}

	if err := m.requireGroup(old); err != nil {
		return kga.Result{}, err
	}
	m.pend = &pending{
		targetEpoch: m.nextEpoch(),
		members:     slices.Clone(ev.Members),
		joined:      slices.Clone(ev.Joined),
		merged:      slices.Clone(ev.Joined),
	}
	m.setState(stAwaitFactorReq)

	if m.name != old[len(old)-1] {
		return kga.Result{}, nil
	}

	// Old controller (MERGE step 1): refresh the share and send the
	// refreshed group secret down the chain.
	f, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}
	newShare := mulQ(m.g, m.share, f)
	m.pend.newShare = newShare
	first := ev.Joined[0]
	lt, err := m.peers.PairwiseJob(first, m.x, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	out := m.g.ExpBatch([]dh.ExpJob{{Base: m.partials[m.name], Exp: newShare, Label: dh.OpShareUpdate}, lt}, m.counter)
	u, kc := out[0], out[1].Bytes()
	body := mergeChainBody{
		Members:     slices.Clone(ev.Members),
		Merged:      slices.Clone(ev.Joined),
		Pos:         0,
		U:           u,
		SenderPub:   m.pub,
		TargetEpoch: m.pend.targetEpoch,
	}
	body.MAC = auth.MACTag(kc, mergeChainCanon(&body))
	enc, err := m.encBody(MsgMergeChain, &body)
	if err != nil {
		return kga.Result{}, err
	}
	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgMergeChain, From: m.name, To: first, Body: enc})
	return res, nil
}

func mergeChainCanon(b *mergeChainBody) []byte {
	return auth.Canon("merge-chain", b.Members, b.Merged, b.Pos, b.U, b.SenderPub, b.TargetEpoch)
}

// requireGroup checks that the committed context matches the expected old
// member list.
func (m *Member) requireGroup(old []string) error {
	if m.key == nil {
		return ErrNoGroup
	}
	if !slices.Equal(m.members, old) {
		return fmt.Errorf("%w: committed members %v, event expects %v", ErrBadEvent, m.members, old)
	}
	return nil
}

// requireGroupSubset checks a leave/refresh event against the committed
// context: survivors+left must equal the committed membership (order of
// survivors preserved).
func (m *Member) requireGroupSubset(survivors, left []string) error {
	if m.key == nil {
		return ErrNoGroup
	}
	if len(survivors)+len(left) != len(m.members) {
		return fmt.Errorf("%w: survivors+left != committed membership", ErrBadEvent)
	}
	si := 0
	for _, name := range m.members {
		if si < len(survivors) && survivors[si] == name {
			si++
			continue
		}
		if !slices.Contains(left, name) {
			return fmt.Errorf("%w: member %s neither survivor nor departed", ErrBadEvent, name)
		}
	}
	if si != len(survivors) {
		return fmt.Errorf("%w: survivor order does not match committed order", ErrBadEvent)
	}
	return nil
}

// commit installs a completed agreement.
func (m *Member) commit(members []string, share *big.Int, partials map[string]*big.Int, secret *big.Int, broadcaster string, ownMAC []byte) {
	m.members = slices.Clone(members)
	m.share = share
	m.partials = make(map[string]*big.Int, len(partials))
	for k, v := range partials {
		m.partials[k] = v
	}
	epoch := m.nextEpochFounding()
	m.key = &kga.GroupKey{Secret: secret, Epoch: epoch, Members: slices.Clone(members)}
	m.prevController = broadcaster
	m.ownEntryMAC = ownMAC
	m.peers.Prune(members)
	m.setState(stIdle)
	m.pend = nil
}

// ownEntryCanon is the MAC context of our own cached partial entry as it
// was received in the previous broadcast.
func (m *Member) ownEntryCanon(broadcaster string) []byte {
	return entryCanon(broadcaster, m.name, m.partials[m.name], m.key.Epoch)
}

func entryCanon(broadcaster, member string, entry *big.Int, epoch uint64) []byte {
	return auth.Canon("entry-v1", broadcaster, member, entry, epoch)
}

func mulQ(g *dh.Group, a, b *big.Int) *big.Int {
	v := new(big.Int).Mul(a, b)
	return v.Mod(v, g.Q)
}
