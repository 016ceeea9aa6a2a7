package main

import (
	"sync/atomic"
	"time"

	"github.com/fluentps/fluentps/internal/core"
	"github.com/fluentps/fluentps/internal/transport"
)

// countingEndpoint wraps a node's endpoint and counts the messages and
// encoded bytes (transport.EncodedSize) that cross it in either
// direction. With a span log it also times each Send, and each Recv's
// wait for the next message, as spans joined to the training step the
// message belongs to.
type countingEndpoint struct {
	transport.Endpoint

	sendKind, recvKind spanKind // zero: do not time that direction
	log                *spanLog

	// progressOf remembers, per peer rank and request seq, the Progress of
	// received requests, so a traced response (which carries only the
	// seq) is filed under the step that asked for it. The receive and
	// send paths run on different goroutines, hence the atomics.
	progressOf *[maxPeers][seqRing]atomic.Int32

	msgs, bytes atomic.Uint64
}

const (
	maxPeers = 8
	seqRing  = 4096
)

// wrapEndpoint returns ep with counting; log, when non-nil, turns on
// timing of the directions whose kind is non-zero.
func wrapEndpoint(ep transport.Endpoint, log *spanLog, sendKind, recvKind spanKind) *countingEndpoint {
	e := &countingEndpoint{Endpoint: ep}
	if log != nil {
		e.log, e.sendKind, e.recvKind = log, sendKind, recvKind
		if recvKind != 0 {
			e.progressOf = new([maxPeers][seqRing]atomic.Int32)
		}
	}
	return e
}

// Send sizes m before handing it on: on a pointer-delivering transport
// (ChanNetwork) the receiver may recycle m as soon as Send returns.
func (e *countingEndpoint) Send(m *transport.Message) error {
	n := uint64(transport.EncodedSize(m))
	var id uint64
	var start time.Time
	if e.sendKind != 0 {
		id, start = e.sendID(m), time.Now()
	}
	err := e.Endpoint.Send(m)
	if e.sendKind != 0 {
		e.log.add(id, e.sendKind, start, time.Now())
	}
	if err == nil {
		e.msgs.Add(1)
		e.bytes.Add(n)
	}
	return err
}

// sendID files a sent message under its step: requests carry the
// sender's progress; responses are looked up by the request seq.
func (e *countingEndpoint) sendID(m *transport.Message) uint64 {
	if e.progressOf == nil {
		return stepID(int(e.ID().Rank), m.Progress)
	}
	rank := int(m.To.Rank)
	if rank >= maxPeers {
		return stepID(rank, -1)
	}
	return stepID(rank, e.progressOf[rank][m.Seq%seqRing].Load())
}

// SendCopies forwards the wrapped endpoint's delivery semantics, so
// transport.SendOwned and SendRetained hand pooled messages over exactly
// as they would on the bare endpoint.
func (e *countingEndpoint) SendCopies() bool { return transport.SendCopies(e.Endpoint) }

func (e *countingEndpoint) Recv() (*transport.Message, error) {
	var start time.Time
	if e.recvKind != 0 {
		start = time.Now()
	}
	m, err := e.Endpoint.Recv()
	if err != nil {
		return m, err
	}
	e.msgs.Add(1)
	e.bytes.Add(uint64(transport.EncodedSize(m)))
	if e.recvKind != 0 {
		rank := int(m.From.Rank)
		if rank < maxPeers {
			e.progressOf[rank][m.Seq%seqRing].Store(m.Progress)
		}
		e.log.add(stepID(rank, m.Progress), e.recvKind, start, time.Now())
	}
	return m, nil
}

// traffic returns the messages and bytes counted in both directions.
func (e *countingEndpoint) traffic() (msgs, bytes uint64) { return e.msgs.Load(), e.bytes.Load() }

// roConn wraps a read-only pull connection and counts the requests sent
// and the retry-after answers (shed or not-yet-servable pulls) received.
type roConn struct {
	conn     core.ROConn
	requests atomic.Uint64
	retries  atomic.Uint64
}

func (c *roConn) Send(m *transport.Message) error {
	isRequest := m.Type == transport.MsgPullRO
	err := c.conn.Send(m)
	if err == nil && isRequest {
		c.requests.Add(1)
	}
	return err
}

func (c *roConn) Recv() (*transport.Message, error) {
	m, err := c.conn.Recv()
	if err == nil && m.Type == transport.MsgPullRORetry {
		c.retries.Add(1)
	}
	return m, err
}
