// Package fixture seeds handlercheck's golden test: dispatch
// exhaustiveness over a locally declared MsgType, the default-arm rule,
// and the touch-the-message rule, each with flagged and clean shapes.
package fixture

import (
	"github.com/fluentps/fluentps/internal/transport"
)

// MsgType mirrors the transport enum so the fixture controls the
// declaring package the exhaustiveness inventory runs over.
type MsgType uint8

const (
	MsgA MsgType = iota + 1
	MsgB
	MsgC
	MsgD // want "message type MsgD is handled by no dispatch switch"
	//lint:dispatch peer-only probe type, consumed inline by the receive loop
	MsgE
	_ // a retired value's slot declares no message type: not flagged
)

// A dispatch (three or more cases) with no default arm: unknown types
// fall through silently.
func dispatchNoDefault(t MsgType) int {
	switch t { // want "dispatch switch over 3 message types has no default arm"
	case MsgA:
		return 1
	case MsgB:
		return 2
	case MsgC:
		return 3
	}
	return 0
}

// Clean: the same dispatch with a default arm.
func dispatchClean(t MsgType) int {
	switch t {
	case MsgA:
		return 1
	case MsgB:
		return 2
	case MsgC:
		return 3
	default:
		return 0
	}
}

// Clean: a two-case switch is a filter, not a dispatcher — exempt from
// the default-arm rule.
func filter(t MsgType) bool {
	switch t {
	case MsgA, MsgB:
		return true
	}
	return false
}

var viewEpoch uint64

// A dispatch over a received pooled message: every case body must touch
// the message — a case that never mentions it can neither release nor
// forward it.
func handle(m *transport.Message) {
	switch m.Type {
	case transport.MsgPush:
		transport.ReleaseReceived(m)
	case transport.MsgPull:
		transport.ReleaseReceived(m)
	case transport.MsgView: // want "dispatch case MsgView never touches the received message"
		viewEpoch++
	default:
		transport.ReleaseReceived(m)
	}
}

// The read-tier family (PR 10): MsgPullRO dispatches like any data-plane
// type; a resp/retry case that never touches the message is flagged the
// same way.
func handleRO(m *transport.Message) {
	switch m.Type {
	case transport.MsgPullRO:
		transport.ReleaseReceived(m)
	case transport.MsgPullROResp:
		transport.ReleaseReceived(m)
	case transport.MsgPullRORetry: // want "dispatch case MsgPullRORetry never touches the received message"
		viewEpoch++
	default:
		transport.ReleaseReceived(m)
	}
}
