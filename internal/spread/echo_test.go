package spread

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
)

// counterValue reads one of a daemon's registry counters.
func counterValue(d *Daemon, name, label string) int64 {
	return d.Obs().Reg.Counter(obs.LabelName(name, label)).Value()
}

// TestHorizonEchoAdvancesAgreedDelivery pins the event-driven horizon echo.
// The periodic heartbeat is 200 ms, so it cannot be what delivers an AGREED
// message: each receiving daemon must announce its clock in an echo right
// after the burst that carried the message, and the sender delivers its own
// message once both echoes arrive. It also bounds the echo traffic: a
// receiver sends at most one heartbeat per ordered data frame it received
// (plus the periodic ones), and the sending daemon, whose own broadcasts
// already carry its clock, sends no echo at all.
func TestHorizonEchoAdvancesAgreedDelivery(t *testing.T) {
	cfg := Config{Heartbeat: 200 * time.Millisecond}
	c, err := NewCluster(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	clients := make([]*Client, len(c.Daemons))
	names := make([]string, len(c.Daemons))
	for i, d := range c.Daemons {
		cl, err := d.Connect(fmt.Sprintf("m%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Join("g"); err != nil {
			t.Fatal(err)
		}
		clients[i], names[i] = cl, cl.Name()
	}
	for _, cl := range clients {
		waitMembers(t, cl, "g", names)
	}

	// counts reads each daemon's heartbeat frames sent and data frames
	// received.
	counts := func() (hb, data []int64) {
		for _, d := range c.Daemons {
			hb = append(hb, counterValue(d, "spread_wire_sent_msgs", "heartbeat"))
			data = append(data, counterValue(d, "spread_wire_recv_msgs", "data"))
		}
		return hb, data
	}
	const n = 30
	start := time.Now()
	hbBefore, dataBefore := counts()

	// arrived[i][k] is when client i received message k.
	arrived := make([][]time.Time, len(clients))
	done := make(chan error, len(clients))
	for i, cl := range clients {
		arrived[i] = make([]time.Time, n)
		go func(i int, cl *Client) {
			for got := 0; got < n; {
				ev, err := cl.Receive(5 * time.Second)
				if err != nil {
					done <- fmt.Errorf("%s: %v after %d messages", cl.Name(), err, got)
					return
				}
				de, ok := ev.(DataEvent)
				if !ok || de.Group != "g" {
					continue
				}
				k, err := strconv.Atoi(string(de.Data))
				if err != nil || k != got {
					done <- fmt.Errorf("%s: message %q out of order, want %d", cl.Name(), de.Data, got)
					return
				}
				arrived[i][k] = time.Now()
				got++
			}
			done <- nil
		}(i, cl)
	}

	sent := make([]time.Time, n)
	for k := 0; k < n; k++ {
		sent[k] = time.Now()
		if err := clients[0].Multicast(Agreed, "g", []byte(strconv.Itoa(k))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for range clients {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	hbAfter, dataAfter := counts()
	elapsed := time.Since(start)

	for k := 0; k < n; k++ {
		for i := range clients {
			if lat := arrived[i][k].Sub(sent[k]); lat > 20*time.Millisecond {
				t.Errorf("message %d reached %s after %v, want <= 20ms", k, c.Daemons[i].Name(), lat)
			}
		}
	}

	// Heartbeats are counted per peer frame; each daemon fans out to the
	// other two. Periodic ticks inside the window are allowed for.
	peers := int64(len(c.Daemons) - 1)
	ticks := int64(elapsed/cfg.Heartbeat) + 1
	for i, d := range c.Daemons {
		hbs := (hbAfter[i] - hbBefore[i]) / peers
		data := dataAfter[i] - dataBefore[i]
		if i == 0 {
			if data != 0 {
				t.Fatalf("%s received %d data frames; only it sends", d.Name(), data)
			}
			if hbs > ticks {
				t.Errorf("%s sent %d heartbeats over %v (at most %d periodic): its own broadcasts carry its clock, so it must not echo",
					d.Name(), hbs, elapsed, ticks)
			}
			continue
		}
		if data != n {
			t.Errorf("%s received %d ordered data frames, want %d", d.Name(), data, n)
		}
		if hbs > data+ticks {
			t.Errorf("%s sent %d heartbeats for %d ordered data frames (+%d periodic)", d.Name(), hbs, data, ticks)
		}
	}
}
