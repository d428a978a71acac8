package ckd

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"slices"

	"repro/internal/dh"
	"repro/internal/kga"
	"repro/internal/kga/auth"
)

// ltMACKey derives a MAC key from a long-term pairwise key K_1i. CKD uses
// K_1i both as a MAC key (through ltMACKey) and as a blinding exponent in
// round 2 of Table 5.
func ltMACKey(k *big.Int) []byte {
	return eMACKey(new(big.Int).Add(k, big.NewInt(1))) // domain-separate from entry keys
}

// HandleMessage advances an in-progress key distribution round.
func (m *Member) HandleMessage(msg kga.Message) (kga.Result, error) {
	switch msg.Type {
	case MsgCtrlHello:
		return m.onCtrlHello(msg)
	case MsgMemberResp:
		return m.onMemberResp(msg)
	case MsgKeyDist:
		return m.onKeyDist(msg)
	default:
		return kga.Result{}, fmt.Errorf("%w: unknown message type %d", ErrBadState, msg.Type)
	}
}

// onCtrlHello: a member needing a pairwise key receives alpha^r_1 (Table 5
// round 1) and answers with its blinded ephemeral (round 2).
func (m *Member) onCtrlHello(msg kga.Message) (kga.Result, error) {
	if m.st != stAwaitHello || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected controller hello", ErrBadState)
	}
	var body helloBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	controller := m.pend.members[0]
	if msg.From != controller {
		return kga.Result{}, fmt.Errorf("%w: hello from %s, controller is %s", ErrBadMAC, msg.From, controller)
	}
	if !slices.Equal(body.Members, m.pend.members) {
		return kga.Result{}, fmt.Errorf("%w: hello membership mismatch", ErrBadState)
	}
	if m.pend.targetEpoch != 0 && body.TargetEpoch != m.pend.targetEpoch {
		return kga.Result{}, ErrBadEpoch
	}
	if err := m.g.CheckElement(body.GR1); err != nil {
		return kga.Result{}, fmt.Errorf("hello value: %w", err)
	}

	// "Long term key computation with controller" (Table 2, new member).
	lt, err := m.peers.PairwiseKey(controller, m.x, m.counter, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	if !auth.MACOK(ltMACKey(lt), body.MAC, helloCanon(msg.From, m.name, &body)) {
		return kga.Result{}, ErrBadMAC
	}

	rMe, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}
	// "Pairwise key computation with controller": alpha^(r_1 r_i).
	eNew := m.g.Exp(body.GR1, rMe, m.counter, dh.OpPairwiseKey)
	if _, err := m.g.InverseQ(m.g.ReduceQ(eNew)); err != nil {
		return kga.Result{}, fmt.Errorf("pairwise blinding not invertible: %w", err)
	}
	// "Encryption of pairwise secret for controller": alpha^(r_i K_1i).
	blindExp := new(big.Int).Mul(rMe, m.g.ReduceQ(lt))
	blindExp.Mod(blindExp, m.g.Q)
	blinded := m.g.PowG(blindExp, m.counter, dh.OpPairwiseSecret)

	m.pend.rMe = rMe
	m.pend.eNew = eNew
	m.pend.targetEpoch = body.TargetEpoch
	m.setState(stAwaitKeyDist)

	resp := respBody{
		Blinded:     blinded,
		SenderPub:   m.pub,
		TargetEpoch: body.TargetEpoch,
	}
	resp.MAC = auth.MACTag(ltMACKey(lt), respCanon(m.name, &resp))
	enc, err := m.encBody(MsgMemberResp, &resp)
	if err != nil {
		return kga.Result{}, err
	}
	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgMemberResp, From: m.name, To: controller, Body: enc})
	return res, nil
}

// onMemberResp: the controller recovers alpha^(r_1 r_i) from a member's
// blinded ephemeral; once all outstanding handshakes finish it distributes.
func (m *Member) onMemberResp(msg kga.Message) (kga.Result, error) {
	if m.st != stCtrlCollect || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected member response", ErrBadState)
	}
	if !m.pend.needResp[msg.From] {
		return kga.Result{}, fmt.Errorf("%w: unsolicited response from %s", ErrBadState, msg.From)
	}
	var body respBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if body.TargetEpoch != m.pend.targetEpoch {
		return kga.Result{}, ErrBadEpoch
	}
	if err := m.g.CheckElement(body.Blinded); err != nil {
		return kga.Result{}, fmt.Errorf("blinded ephemeral: %w", err)
	}
	lt, ok := m.pend.lt[msg.From]
	if !ok {
		return kga.Result{}, fmt.Errorf("%w: no long-term key cached for %s", ErrBadState, msg.From)
	}
	if !auth.MACOK(ltMACKey(lt), body.MAC, respCanon(msg.From, &body)) {
		return kga.Result{}, ErrBadMAC
	}

	// "Pairwise key computation with new member": strip the long-term
	// blinding and fold in r_1, one exponentiation.
	ltInv, err := m.g.InverseQ(m.g.ReduceQ(lt))
	if err != nil {
		return kga.Result{}, err
	}
	r1 := m.r1
	if m.pend.r1 != nil {
		r1 = m.pend.r1
	}
	exp := new(big.Int).Mul(r1, ltInv)
	exp.Mod(exp, m.g.Q)
	e := m.g.Exp(body.Blinded, exp, m.counter, dh.OpPairwiseKey)
	if _, err := m.g.InverseQ(m.g.ReduceQ(e)); err != nil {
		return kga.Result{}, fmt.Errorf("pairwise blinding not invertible: %w", err)
	}

	m.pend.newE[msg.From] = e
	delete(m.pend.needResp, msg.From)
	if len(m.pend.needResp) > 0 {
		return kga.Result{}, nil
	}
	return m.distribute()
}

// onKeyDist: a member strips the blinding from its entry and installs the
// new group secret (Table 5 round 3, receiver side).
func (m *Member) onKeyDist(msg kga.Message) (kga.Result, error) {
	if m.st != stAwaitKeyDist || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected key distribution", ErrBadState)
	}
	var body keyDistBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	controller := m.pend.members[0]
	if msg.From != controller {
		return kga.Result{}, fmt.Errorf("%w: key dist from %s, controller is %s", ErrBadMAC, msg.From, controller)
	}
	if !slices.Equal(body.Members, m.pend.members) {
		return kga.Result{}, fmt.Errorf("%w: key dist membership mismatch", ErrBadState)
	}
	if m.pend.targetEpoch != 0 && body.TargetEpoch != m.pend.targetEpoch {
		return kga.Result{}, ErrBadEpoch
	}
	entry, ok := body.Entries[m.name]
	if !ok {
		return kga.Result{}, fmt.Errorf("%w: no entry for %s", ErrBadState, m.name)
	}
	if err := m.g.CheckElement(entry); err != nil {
		return kga.Result{}, fmt.Errorf("entry: %w", err)
	}

	e := m.e
	if m.pend.eNew != nil {
		e = m.pend.eNew
	}
	if e == nil {
		return kga.Result{}, fmt.Errorf("%w: no pairwise key with controller", ErrBadState)
	}
	if !auth.MACOK(eMACKey(e), body.EntryMACs[m.name], entryCanon(msg.From, m.name, entry, body.TargetEpoch)) {
		return kga.Result{}, ErrBadMAC
	}

	inv, err := m.g.InverseQ(m.g.ReduceQ(e))
	if err != nil {
		return kga.Result{}, err
	}
	// "Decryption of session key".
	secret := m.g.Exp(entry, inv, m.counter, dh.OpKeyDecrypt)

	m.members = slices.Clone(body.Members)
	m.peers.Prune(m.members)
	m.e = e
	m.r1 = nil
	m.eByMember = nil
	m.key = &kga.GroupKey{Secret: secret, Epoch: body.TargetEpoch, Members: slices.Clone(body.Members)}
	m.setState(stIdle)
	m.pend = nil
	return kga.Result{Key: m.key}, nil
}
