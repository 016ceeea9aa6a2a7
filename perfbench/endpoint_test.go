package main

import (
	"testing"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/transport"
)

// endpointPair returns a worker and a server endpoint that can reach
// each other over the named transport.
func endpointPair(t *testing.T, kind string) (worker, server transport.Endpoint) {
	t.Helper()
	switch kind {
	case "chan":
		net := transport.NewChanNetwork(0)
		worker, server = net.Endpoint(transport.Worker(1)), net.Endpoint(transport.Server(0))
	case "tcp":
		srv, err := transport.ListenTCP(transport.Server(0), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		wk, err := transport.ListenTCP(transport.Worker(1), "127.0.0.1:0",
			map[transport.NodeID]string{transport.Server(0): srv.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetPeer(transport.Worker(1), wk.Addr())
		worker, server = wk, srv
	}
	t.Cleanup(func() {
		_ = worker.Close()
		_ = server.Close()
	})
	return worker, server
}

// TestCountingEndpointBytes sends requests of several shapes through the
// wrapper, plain and pooled, and has the far side recycle each message
// as soon as it arrives. Counted bytes must equal the sum of EncodedSize
// on both sides, whichever way the transport delivers.
func TestCountingEndpointBytes(t *testing.T) {
	for _, kind := range []string{"chan", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			rawW, rawS := endpointPair(t, kind)
			w := wrapEndpoint(rawW, newSpanLog(64), spanWorkerSend, 0)
			s := wrapEndpoint(rawS, newSpanLog(64), spanServerSend, spanServerRecvWait)
			if got, want := w.SendCopies(), transport.SendCopies(rawW); got != want {
				t.Fatalf("SendCopies = %v, bare endpoint says %v", got, want)
			}

			var want uint64
			const n = 30
			done := make(chan uint64)
			go func() {
				var sum uint64
				for i := 0; i < n; i++ {
					m, err := s.Recv()
					if err != nil {
						t.Error(err)
						break
					}
					sum += uint64(transport.EncodedSize(m))
					transport.ReleaseReceived(m)
				}
				done <- sum
			}()
			for i := 0; i < n; i++ {
				m := transport.NewMessage()
				m.Type, m.To, m.Seq, m.Progress = transport.MsgPush, transport.Server(0), uint64(i+1), int32(i)
				for k := 0; k <= i%4; k++ {
					m.Keys = append(m.Keys, keyrange.Key(k))
				}
				for v := 0; v < 100*i; v++ {
					m.Vals = append(m.Vals, float64(v))
				}
				want += uint64(transport.EncodedSize(m))
				var err error
				switch i % 3 {
				case 0:
					err = transport.SendOwned(w, m)
				case 1:
					err = transport.SendRetained(w, m)
					transport.Release(m)
				default:
					plain := m.Clone()
					transport.Release(m)
					err = w.Send(plain)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			received := <-done
			if msgs, bytes := w.traffic(); msgs != n || bytes != want {
				t.Errorf("sender counted %d messages, %d bytes; sent %d, %d", msgs, bytes, n, want)
			}
			if msgs, bytes := s.traffic(); msgs != n || bytes != want || received != want {
				t.Errorf("receiver counted %d messages, %d bytes (handed %d bytes); sent %d, %d", msgs, bytes, received, n, want)
			}
			if got := len(durations(spanWorkerSend, w.log)); got != n {
				t.Errorf("%d send spans, want %d", got, n)
			}
		})
	}
}

// TestCountingEndpointPooledHandoff checks that ownership of a pooled
// message sent through the wrapper moves exactly as on the bare
// endpoint: to the receiver on a pointer-delivering transport.
func TestCountingEndpointPooledHandoff(t *testing.T) {
	rawW, rawS := endpointPair(t, "chan")
	w := wrapEndpoint(rawW, nil, 0, 0)
	m := transport.NewMessage()
	m.Type, m.To = transport.MsgPush, transport.Server(0)
	if err := transport.SendOwned(w, m); err != nil {
		t.Fatal(err)
	}
	got, err := rawS.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !got.ReceiverOwned() {
		t.Error("pooled message sent through the wrapper did not reach the receiver as receiver-owned")
	}
	transport.ReleaseReceived(got)
}

// TestCountingEndpointJoinsSpans checks the traced span ids: a worker's
// request is filed under (worker rank, progress), and the server's
// answer, which carries only the seq, under the same step.
func TestCountingEndpointJoinsSpans(t *testing.T) {
	rawW, rawS := endpointPair(t, "chan")
	w := wrapEndpoint(rawW, newSpanLog(8), spanWorkerSend, 0)
	s := wrapEndpoint(rawS, newSpanLog(8), spanServerSend, spanServerRecvWait)
	req := &transport.Message{Type: transport.MsgPull, To: transport.Server(0), Seq: 7, Progress: 42}
	if err := w.Send(req); err != nil {
		t.Fatal(err)
	}
	got, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	resp := &transport.Message{Type: transport.MsgPullResp, To: got.From, Seq: got.Seq}
	transport.ReleaseReceived(got)
	if err := s.Send(resp); err != nil {
		t.Fatal(err)
	}
	back, err := w.Recv()
	if err != nil {
		t.Fatal(err)
	}
	transport.ReleaseReceived(back)
	want := stepID(1, 42)
	for _, l := range []*spanLog{w.log, s.log} {
		for _, sp := range l.spans {
			if sp.id != want {
				t.Errorf("%s span filed under %#x, want %#x", sp.kind, sp.id, want)
			}
		}
	}
	if len(s.log.spans) != 2 {
		t.Errorf("server recorded %d spans, want a receive wait and a send", len(s.log.spans))
	}
}

// recyclingEndpoint models the earliest recycling a pointer-delivering
// transport allows: the receiver has drained and released the message
// by the time Send returns.
type recyclingEndpoint struct{ transport.Endpoint }

func (recyclingEndpoint) Send(m *transport.Message) error {
	m.Keys, m.Vals = m.Keys[:0], m.Vals[:0]
	return nil
}

func (recyclingEndpoint) SendCopies() bool { return false }

// TestCountingEndpointSizesBeforeSend pins the wrapper's ordering: the
// message is sized before Send, so a receiver that recycles it at once
// cannot shrink the count.
func TestCountingEndpointSizesBeforeSend(t *testing.T) {
	e := wrapEndpoint(recyclingEndpoint{}, nil, 0, 0)
	m := &transport.Message{Type: transport.MsgPush, Keys: []keyrange.Key{0, 1}, Vals: make([]float64, 64)}
	want := uint64(transport.EncodedSize(m))
	if err := e.Send(m); err != nil {
		t.Fatal(err)
	}
	if _, bytes := e.traffic(); bytes != want {
		t.Errorf("counted %d bytes, the message encoded to %d", bytes, want)
	}
}
