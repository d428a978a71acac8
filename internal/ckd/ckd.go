// Package ckd implements the Centralized Key Distribution protocol of the
// paper's Appendix A (Table 5): the comparison baseline for Cliques.
//
// Unlike Cliques, CKD is not contributory: the group controller — always the
// OLDEST member — generates the group secret unilaterally and distributes it
// blinded under per-member ephemeral pairwise keys. The two phases are:
//
//  1. Each member and the controller agree on an ephemeral pairwise key
//     alpha^(r_1 r_i) via authenticated two-party Diffie-Hellman (rounds 1-2
//     of Table 5); the pairwise key persists while both stay in the group.
//  2. The controller draws a fresh group secret Ks and sends each member
//     Ks^(alpha^(r_1 r_i)) (round 3); the member strips the blinding with
//     the inverse exponent.
//
// When the controller leaves, the new controller (next oldest) re-runs
// phase 1 with every member — the 3n-5 exponentiation case of Table 3.
package ckd

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

// ProtoName is the registered protocol name of the CKD module.
const ProtoName = "ckd"

// Protocol message types (kga.Message.Type values).
const (
	// MsgCtrlHello carries alpha^r_1 from the controller to a member
	// that needs a pairwise key (Table 5, round 1).
	MsgCtrlHello = iota + 1
	// MsgMemberResp returns alpha^(r_i K_1i) to the controller
	// (Table 5, round 2).
	MsgMemberResp
	// MsgKeyDist broadcasts the blinded group secret (Table 5, round 3).
	MsgKeyDist
)

// Errors returned by the protocol engine. ErrBadState and ErrBadEpoch wrap
// kga.ErrRetry: the message may become consumable after local progress.
var (
	ErrBadState  = fmt.Errorf("ckd: message does not match protocol state (%w)", kga.ErrRetry)
	ErrBadMAC    = errors.New("ckd: message authentication failed")
	ErrBadEpoch  = fmt.Errorf("ckd: message targets a different epoch (%w)", kga.ErrRetry)
	ErrNotMember = errors.New("ckd: local member not in the new membership")
	ErrBadEvent  = errors.New("ckd: malformed membership event")
	ErrNoGroup   = errors.New("ckd: no established group context")
)

type state int

const (
	stIdle         state = iota
	stCtrlCollect        // controller collecting member responses
	stAwaitHello         // member waiting for the controller's hello
	stAwaitKeyDist       // member waiting for the blinded secret
)

var _ kga.Protocol = (*Member)(nil)

// Factory builds a CKD engine for kga's protocol registry.
func Factory(member string, g *dh.Group, dir kga.Directory, counter *dh.Counter) (kga.Protocol, error) {
	return NewMember(member, g, dir, WithCounter(counter))
}

// The protocol registry is one of the accepted uses of init (pluggable
// hooks): importing the package makes "ckd" selectable per group.
func init() {
	if err := kga.Register(ProtoName, Factory); err != nil {
		panic(err)
	}
}

// Member is one participant's CKD protocol engine. Like the Cliques engine
// it is purely computational and not safe for concurrent use.
type Member struct {
	name    string
	g       *dh.Group
	peers   *auth.Peers // peers' long-term keys, each value validated once
	counter *dh.Counter

	x   *big.Int // long-term private key
	pub *big.Int // long-term public key

	// Committed group context.
	members []string
	key     *kga.GroupKey
	// Controller side: r1 is the controllership ephemeral, gr1 its
	// public value alpha^r_1; eByMember maps each member to the shared
	// blinding exponent alpha^(r_1 r_i).
	r1        *big.Int
	gr1       *big.Int
	eByMember map[string]*big.Int
	// Member side: e is our blinding exponent with the controller.
	e *big.Int

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

	// Controller side.
	r1       *big.Int            // fresh controllership ephemeral, if any
	gr1      *big.Int            // alpha^r1 for the fresh ephemeral
	needResp map[string]bool     // members whose handshake is outstanding
	newE     map[string]*big.Int // blinding exponents gathered this round
	lt       map[string]*big.Int // long-term pairwise keys cached this round
	// Member side.
	rMe  *big.Int // fresh member ephemeral for the handshake
	eNew *big.Int // freshly derived blinding exponent
}

// Option configures a Member.
type Option func(*Member)

// WithCounter attaches an exponentiation counter (for Tables 2-4).
func WithCounter(c *dh.Counter) Option {
	return func(m *Member) { m.counter = c }
}

// NewMember creates a CKD protocol engine for the named member.
func NewMember(name string, g *dh.Group, dir kga.Directory, opts ...Option) (*Member, error) {
	x, err := g.NewShare(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("ckd: long-term key: %w", err)
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
	m.pub = g.PowG(x, nil, "")
	return m, nil
}

// Proto returns the registered protocol name.
func (m *Member) Proto() string { return ProtoName }

// Name returns the member's name.
func (m *Member) Name() string { return m.name }

// PubKey returns the member's long-term public key.
func (m *Member) PubKey() *big.Int { return new(big.Int).Set(m.pub) }

// Key returns the committed group key, or nil.
func (m *Member) Key() *kga.GroupKey { return m.key }

// Members returns the committed member list, oldest first.
func (m *Member) Members() []string { return slices.Clone(m.members) }

// Controller returns the current controller: the oldest member.
func (m *Member) Controller() string {
	if len(m.members) == 0 {
		return ""
	}
	return m.members[0]
}

// InProgress reports whether an agreement is pending.
func (m *Member) InProgress() bool { return m.st != stIdle }

// Reset aborts any in-progress agreement (cascading-event handling).
func (m *Member) Reset() {
	m.setState(stIdle)
	m.pend = nil
}

// Dissolve discards all group context.
func (m *Member) Dissolve() {
	m.Reset()
	m.members = nil
	m.key = nil
	m.r1 = nil
	m.eByMember = nil
	m.e = nil
	m.peers.Prune(nil)
}

func (m *Member) nextEpoch() uint64 {
	if m.key == nil {
		return 1
	}
	return m.key.Epoch + 1
}

// HandleEvent starts a key distribution round for a membership change.
func (m *Member) HandleEvent(ev kga.Event) (kga.Result, error) {
	if m.st != stIdle {
		return kga.Result{}, fmt.Errorf("%w: event %v during in-progress round", ErrBadState, ev.Type)
	}
	if m.trace != nil {
		m.trace("op", fmt.Sprintf("%v members=%v joined=%v left=%v", ev.Type, ev.Members, ev.Joined, ev.Left))
	}
	switch ev.Type {
	case kga.EvFound:
		return m.evFound(ev)
	case kga.EvJoin, kga.EvMerge:
		return m.evAdd(ev)
	case kga.EvLeave:
		return m.evLeave(ev)
	case kga.EvRefresh:
		return m.evRefresh(ev)
	default:
		return kga.Result{}, fmt.Errorf("%w: unknown type %d", ErrBadEvent, ev.Type)
	}
}

func (m *Member) evFound(ev kga.Event) (kga.Result, error) {
	if len(ev.Members) != 1 || ev.Members[0] != m.name {
		return kga.Result{}, fmt.Errorf("%w: found event must contain exactly the local member", ErrBadEvent)
	}
	r1, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}
	ks, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}
	secret := m.g.PowG(ks, m.counter, dh.OpSessionKey)
	epoch := m.nextEpoch()
	m.members = []string{m.name}
	m.r1 = r1
	// alpha^r_1 is computed once per controllership; like the paper's
	// "this selection is performed only once" note in Table 5, it is not
	// charged to any per-operation count.
	m.gr1 = m.g.PowG(r1, nil, "")
	m.eByMember = make(map[string]*big.Int)
	m.key = &kga.GroupKey{Secret: secret, Epoch: epoch, Members: []string{m.name}}
	return kga.Result{Key: m.key}, nil
}

// evAdd handles JOIN and MERGE uniformly: the controller handshakes with
// every added member, then distributes a fresh secret.
func (m *Member) evAdd(ev kga.Event) (kga.Result, error) {
	if len(ev.Joined) == 0 || len(ev.Members) <= len(ev.Joined) {
		return kga.Result{}, fmt.Errorf("%w: add event needs joiners and a base group", ErrBadEvent)
	}
	if !slices.Equal(ev.Members[len(ev.Members)-len(ev.Joined):], ev.Joined) {
		return kga.Result{}, fmt.Errorf("%w: added members must be the tail of the member list", ErrBadEvent)
	}
	if !slices.Contains(ev.Members, m.name) {
		return kga.Result{}, ErrNotMember
	}
	old := ev.Members[:len(ev.Members)-len(ev.Joined)]
	controller := ev.Members[0]

	if slices.Contains(ev.Joined, m.name) {
		// Added member: any previous context is superseded; wait for
		// the controller's hello.
		m.pend = &pending{
			members: slices.Clone(ev.Members),
			joined:  slices.Clone(ev.Joined),
		}
		m.setState(stAwaitHello)
		return kga.Result{}, nil
	}

	if err := m.requireGroup(old); err != nil {
		return kga.Result{}, err
	}
	m.pend = &pending{
		targetEpoch: m.nextEpoch(),
		members:     slices.Clone(ev.Members),
		joined:      slices.Clone(ev.Joined),
	}
	if m.name != controller {
		m.setState(stAwaitKeyDist)
		return kga.Result{}, nil
	}

	// Controller: round 1 with every added member.
	m.setState(stCtrlCollect)
	m.pend.needResp = make(map[string]bool, len(ev.Joined))
	m.pend.newE = make(map[string]*big.Int)
	m.pend.lt = make(map[string]*big.Int)
	var res kga.Result
	for _, name := range ev.Joined {
		m.pend.needResp[name] = true
		msg, err := m.makeHello(name, m.gr1, m.pend.targetEpoch, ev.Members)
		if err != nil {
			return kga.Result{}, err
		}
		res.Msgs = append(res.Msgs, msg)
	}
	return res, nil
}

// makeHello builds a round-1 message to one member, authenticated under the
// long-term pairwise key (one OpLongTermKey exponentiation, cached for the
// round so response verification is free).
func (m *Member) makeHello(to string, gr1 *big.Int, epoch uint64, members []string) (kga.Message, error) {
	lt, err := m.peers.PairwiseKey(to, m.x, m.counter, dh.OpLongTermKey)
	if err != nil {
		return kga.Message{}, err
	}
	m.pend.lt[to] = lt
	body := helloBody{
		Members:     slices.Clone(members),
		GR1:         gr1,
		SenderPub:   m.pub,
		TargetEpoch: epoch,
	}
	body.MAC = auth.MACTag(ltMACKey(lt), helloCanon(m.name, to, &body))
	enc, err := m.encBody(MsgCtrlHello, &body)
	if err != nil {
		return kga.Message{}, err
	}
	return kga.Message{Proto: ProtoName, Type: MsgCtrlHello, From: m.name, To: to, Body: enc}, nil
}

func (m *Member) evLeave(ev kga.Event) (kga.Result, error) {
	if len(ev.Left) == 0 || len(ev.Members) == 0 {
		return kga.Result{}, fmt.Errorf("%w: leave needs departed members and survivors", ErrBadEvent)
	}
	if !slices.Contains(ev.Members, m.name) {
		return kga.Result{}, ErrNotMember
	}
	if err := m.requireGroupSubset(ev.Members, ev.Left); err != nil {
		return kga.Result{}, err
	}
	oldController := m.members[0]
	controller := ev.Members[0]
	controllerChanged := slices.Contains(ev.Left, oldController)

	m.pend = &pending{
		targetEpoch: m.nextEpoch(),
		members:     slices.Clone(ev.Members),
		left:        slices.Clone(ev.Left),
	}

	if m.name != controller {
		if controllerChanged {
			// The new controller must re-handshake with us.
			m.setState(stAwaitHello)
		} else {
			m.setState(stAwaitKeyDist)
		}
		return kga.Result{}, nil
	}

	if !controllerChanged {
		// Ordinary leave: drop the departed members' pairwise keys and
		// redistribute immediately (Table 3: n-1 exponentiations).
		for _, name := range ev.Left {
			delete(m.eByMember, name)
		}
		return m.distribute()
	}

	// Controller left: we are the new controller (oldest survivor).
	// Re-run phase 1 with every other survivor (Table 3: 3n-5 total).
	r1, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}
	m.pend.r1 = r1
	// See evFound: the controllership public value is not charged to the
	// operation (Table 3 counts 3n-5 for controller leave, excluding it).
	m.pend.gr1 = m.g.PowG(r1, nil, "")
	m.pend.needResp = make(map[string]bool, len(ev.Members)-1)
	m.pend.newE = make(map[string]*big.Int)
	m.pend.lt = make(map[string]*big.Int)
	m.setState(stCtrlCollect)
	var res kga.Result
	for _, name := range ev.Members {
		if name == m.name {
			continue
		}
		m.pend.needResp[name] = true
		msg, err := m.makeHello(name, m.pend.gr1, m.pend.targetEpoch, ev.Members)
		if err != nil {
			return kga.Result{}, err
		}
		res.Msgs = append(res.Msgs, msg)
	}
	if len(res.Msgs) == 0 {
		// Sole survivor: distribute to ourselves.
		return m.distribute()
	}
	return res, nil
}

func (m *Member) evRefresh(ev kga.Event) (kga.Result, error) {
	if !slices.Contains(ev.Members, m.name) {
		return kga.Result{}, ErrNotMember
	}
	if err := m.requireGroup(ev.Members); err != nil {
		return kga.Result{}, err
	}
	m.pend = &pending{
		targetEpoch: m.nextEpoch(),
		members:     slices.Clone(ev.Members),
		refresh:     true,
	}
	if m.name != ev.Members[0] {
		m.setState(stAwaitKeyDist)
		return kga.Result{}, nil
	}
	return m.distribute()
}

// distribute is phase 2: the controller draws a fresh secret and broadcasts
// it blinded under each member's pairwise exponent. Table 5, round 3.
func (m *Member) distribute() (kga.Result, error) {
	ks, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}
	// "New session key computation": Ks = alpha^ks.
	secret := m.g.PowG(ks, m.counter, dh.OpSessionKey)

	members := m.pend.members
	others := members[1:] // the controller is the oldest member
	eAll := m.effectiveE()
	jobs := make([]dh.ExpJob, len(others))
	for i, name := range others {
		e, ok := eAll[name]
		if !ok {
			return kga.Result{}, fmt.Errorf("%w: no pairwise key with %s", ErrBadState, name)
		}
		jobs[i] = dh.ExpJob{Base: secret, Exp: m.g.ReduceQ(e), Label: dh.OpKeyEncrypt}
	}
	// "Encryption of session key": Ks^(alpha^(r_1 r_i)) for each member —
	// independent exponentiations, run as one batch.
	out := m.g.ExpBatch(jobs, m.counter)
	entries := make(map[string]*big.Int, len(others))
	macs := make(map[string][]byte, len(others))
	for i, name := range others {
		entries[name] = out[i]
		macs[name] = auth.MACTag(eMACKey(eAll[name]), entryCanon(m.name, name, out[i], m.pend.targetEpoch))
	}
	body := keyDistBody{
		Members:     slices.Clone(members),
		Left:        slices.Clone(m.pend.left),
		Entries:     entries,
		EntryMACs:   macs,
		SenderPub:   m.pub,
		TargetEpoch: m.pend.targetEpoch,
	}
	enc, err := m.encBody(MsgKeyDist, &body)
	if err != nil {
		return kga.Result{}, err
	}

	epoch := m.pend.targetEpoch
	if m.pend.r1 != nil {
		m.r1 = m.pend.r1
		m.gr1 = m.pend.gr1
	}
	m.eByMember = eAll
	m.members = slices.Clone(members)
	m.peers.Prune(m.members)
	m.e = nil
	m.key = &kga.GroupKey{Secret: secret, Epoch: epoch, Members: slices.Clone(members)}
	m.setState(stIdle)
	m.pend = nil

	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgKeyDist, From: m.name, To: "", Body: enc})
	res.Key = m.key
	return res, nil
}

// effectiveE merges committed pairwise exponents with ones gathered during
// the pending round, dropping departed members.
func (m *Member) effectiveE() map[string]*big.Int {
	out := make(map[string]*big.Int, len(m.eByMember)+len(m.pend.newE))
	for _, name := range m.pend.members {
		if e, ok := m.pend.newE[name]; ok {
			out[name] = e
			continue
		}
		if e, ok := m.eByMember[name]; ok {
			out[name] = e
		}
	}
	return out
}

func (m *Member) requireGroup(old []string) error {
	if m.key == nil {
		return ErrNoGroup
	}
	if !slices.Equal(m.members, old) {
		return fmt.Errorf("%w: committed members %v, event expects %v", ErrBadEvent, m.members, old)
	}
	return nil
}

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
