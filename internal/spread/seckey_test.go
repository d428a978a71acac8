package spread

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

func secConfig() Config {
	cfg := testConfig()
	cfg.DaemonKeying = true
	return cfg
}

func newSecCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(n, secConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestDaemonKeyingBasicFlow(t *testing.T) {
	c := newSecCluster(t, 3)
	// Every daemon must hold a daemon-group key.
	for _, d := range c.Daemons {
		st := d.Stats()
		if st.DaemonKeyEpoch == 0 {
			t.Fatalf("%s has no daemon key", d.Name())
		}
	}

	a, _ := c.Daemons[0].Connect("a")
	b, _ := c.Daemons[1].Connect("b")
	a.Join("g")
	b.Join("g")
	want := []string{a.Name(), b.Name()}
	waitMembers(t, a, "g", want)
	waitMembers(t, b, "g", want)

	if err := a.Multicast(Agreed, "g", []byte("daemon-keyed payload")); err != nil {
		t.Fatal(err)
	}
	d := nextData(t, b, "g")
	if string(d.Data) != "daemon-keyed payload" {
		t.Fatalf("got %q", d.Data)
	}
}

// tapNetwork records every frame crossing the in-memory network so tests
// can assert on what an eavesdropper would see.
type tapNetwork struct {
	*transport.MemNetwork
	mu     sync.Mutex
	frames [][]byte
}

func (t *tapNetwork) Attach(name string, h transport.Handler) (transport.Node, error) {
	wrapped := transport.HandlerFunc(func(from string, data []byte) {
		t.mu.Lock()
		cp := make([]byte, len(data))
		copy(cp, data)
		t.frames = append(t.frames, cp)
		t.mu.Unlock()
		h.HandleMessage(from, data)
	})
	return t.MemNetwork.Attach(name, wrapped)
}

func (t *tapNetwork) sawPlaintext(marker []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range t.frames {
		if bytes.Contains(f, marker) {
			return true
		}
	}
	return false
}

func TestDaemonKeyingHidesWireData(t *testing.T) {
	tap := &tapNetwork{MemNetwork: transport.NewMemNetwork()}
	names := []string{"d00", "d01"}
	var daemons []*Daemon
	for _, name := range names {
		d, err := NewDaemon(name, names, tap, secConfig())
		if err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
	}
	defer func() {
		for _, d := range daemons {
			d.Stop()
		}
	}()
	cluster := &Cluster{Daemons: daemons, cfg: secConfig().withDefaults()}
	if err := cluster.WaitStable(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	a, _ := daemons[0].Connect("a")
	b, _ := daemons[1].Connect("b")
	a.Join("g")
	b.Join("g")
	want := []string{a.Name(), b.Name()}
	waitMembers(t, a, "g", want)
	waitMembers(t, b, "g", want)

	marker := []byte("TOP-SECRET-MARKER-PAYLOAD")
	if err := a.Multicast(Agreed, "g", marker); err != nil {
		t.Fatal(err)
	}
	d := nextData(t, b, "g")
	if !bytes.Equal(d.Data, marker) {
		t.Fatalf("delivery corrupted: %q", d.Data)
	}
	if tap.sawPlaintext(marker) {
		t.Fatal("payload crossed the wire in plaintext despite daemon keying")
	}
}

func TestPlainClusterLeaksWireData(t *testing.T) {
	// Control experiment: without daemon keying the marker IS visible on
	// the wire (the client model relies on the secure layer above for
	// confidentiality).
	tap := &tapNetwork{MemNetwork: transport.NewMemNetwork()}
	names := []string{"d00", "d01"}
	var daemons []*Daemon
	for _, name := range names {
		d, err := NewDaemon(name, names, tap, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
	}
	defer func() {
		for _, d := range daemons {
			d.Stop()
		}
	}()
	cluster := &Cluster{Daemons: daemons, cfg: testConfig().withDefaults()}
	if err := cluster.WaitStable(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	a, _ := daemons[0].Connect("a")
	b, _ := daemons[1].Connect("b")
	a.Join("g")
	b.Join("g")
	want := []string{a.Name(), b.Name()}
	waitMembers(t, a, "g", want)
	waitMembers(t, b, "g", want)
	marker := []byte("VISIBLE-MARKER-PAYLOAD")
	if err := a.Multicast(Agreed, "g", marker); err != nil {
		t.Fatal(err)
	}
	nextData(t, b, "g")
	if !tap.sawPlaintext(marker) {
		t.Fatal("expected plaintext payload on the wire without daemon keying")
	}
}

func TestDaemonKeyingPartitionHeal(t *testing.T) {
	c := newSecCluster(t, 3)
	names := []string{c.Daemons[0].Name(), c.Daemons[1].Name(), c.Daemons[2].Name()}
	a, _ := c.Daemons[0].Connect("a")
	b, _ := c.Daemons[2].Connect("b")
	for _, cl := range []*Client{a, b} {
		if err := cl.Join("g"); err != nil {
			t.Fatal(err)
		}
		nextView(t, cl, "g")
	}
	want := []string{a.Name(), b.Name()}
	waitMembers(t, a, "g", want)
	waitMembers(t, b, "g", want)

	epochBefore := c.Daemons[0].Stats().DaemonKeyEpoch

	c.Net.Partition(names[:2], names[2:])
	waitMembers(t, a, "g", []string{a.Name()})
	waitMembers(t, b, "g", []string{b.Name()})

	c.Net.Heal()
	waitMembers(t, a, "g", want)
	waitMembers(t, b, "g", want)

	// Traffic flows again under a fresh daemon key.
	if err := a.Multicast(Agreed, "g", []byte("post-heal")); err != nil {
		t.Fatal(err)
	}
	d := nextData(t, b, "g")
	if string(d.Data) != "post-heal" {
		t.Fatalf("got %q", d.Data)
	}
	if c.Daemons[0].Stats().DaemonKeyEpoch == epochBefore {
		t.Log("note: daemon key epoch unchanged (fresh engine per view resets epochs)")
	}
}

func TestDaemonKeyingManyClients(t *testing.T) {
	c := newSecCluster(t, 3)
	var clients []*Client
	for i := 0; i < 6; i++ {
		cl, err := c.Daemons[i%3].Connect(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		if err := cl.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	for _, cl := range clients {
		want = append(want, cl.Name())
	}
	slices.Sort(want)
	for _, cl := range clients {
		waitMembers(t, cl, "g", want)
	}
	// Total order still holds under encrypted transport.
	for i, cl := range clients {
		if err := cl.Multicast(Agreed, "g", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var ref []string
	for range clients {
		d := nextData(t, clients[0], "g")
		ref = append(ref, d.Sender+":"+string(d.Data))
	}
	for _, cl := range clients[1:] {
		var got []string
		for range clients {
			d := nextData(t, cl, "g")
			got = append(got, d.Sender+":"+string(d.Data))
		}
		if !slices.Equal(got, ref) {
			t.Fatalf("order diverged under daemon keying: %v vs %v", got, ref)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	c := newSecCluster(t, 2)
	a, _ := c.Daemons[0].Connect("a")
	a.Join("g")
	nextView(t, a, "g")
	a.Multicast(Agreed, "g", []byte("x"))
	nextData(t, a, "g")

	st := c.Daemons[0].Stats()
	if st.Clients != 1 {
		t.Fatalf("clients = %d", st.Clients)
	}
	if st.Groups != 1 {
		t.Fatalf("groups = %d", st.Groups)
	}
	if st.MsgsSent == 0 || st.MsgsDelivered == 0 {
		t.Fatalf("counters empty: %+v", st)
	}
	if len(st.View.Members) != 2 {
		t.Fatalf("view = %+v", st.View)
	}
	if st.DaemonKeyEpoch == 0 {
		t.Fatal("daemon key epoch zero with keying enabled")
	}
}

// TestDroppedFramesCounted: a frame that fails to decode and a sealed data
// frame that fails to open are dropped, and each drop is counted under
// spread_frames_dropped with its reason instead of vanishing silently.
func TestDroppedFramesCounted(t *testing.T) {
	c := newSecCluster(t, 2)
	d, peer := c.Daemons[0], c.Daemons[1].Name()

	// The cluster is stable but its daemon-group key agreement may still
	// be running; wait until this daemon holds a key for its view.
	var view ViewID
	var epoch uint64
	for deadline := time.Now().Add(5 * time.Second); epoch == 0; {
		if err := d.do(func() {
			if d.sec.ready && d.sec.suite != nil {
				view, epoch = d.view.ID, d.sec.key.Epoch
			}
		}); err != nil {
			t.Fatal(err)
		}
		if epoch == 0 && time.Now().After(deadline) {
			t.Fatal("daemon never keyed its view")
		}
		time.Sleep(time.Millisecond)
	}
	// Current view and key epoch, so the frame reaches Open; the sealed
	// bytes are not under the daemon-group key.
	forged, err := encodeWire(&wireMsg{Kind: kindSecData, Sec: &secMsg{
		View:  view,
		Epoch: epoch,
		Frame: bytes.Repeat([]byte{0xab}, 64),
	}})
	if err != nil {
		t.Fatal(err)
	}
	d.handleTransport(peer, []byte{0x00, 0x01, 0xff}) // preamble, then an unknown kind
	d.handleTransport(peer, forged)

	deadline := time.Now().Add(5 * time.Second)
	for {
		dec := counterValue(d, "spread_frames_dropped", "decode")
		unseal := counterValue(d, "spread_frames_dropped", "unseal")
		if dec == 1 && unseal == 1 {
			break
		}
		if time.Now().After(deadline) || dec > 1 || unseal > 1 {
			t.Fatalf("spread_frames_dropped: decode=%d unseal=%d, want 1 and 1", dec, unseal)
		}
		time.Sleep(time.Millisecond)
	}
	if v, ok := d.CurrentView(); !ok || v.ID != view {
		t.Fatalf("view moved after dropped frames: %v -> %v", view, v.ID)
	}
}
