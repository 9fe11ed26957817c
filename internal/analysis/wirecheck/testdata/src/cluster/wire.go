// Fixture for wirecheck: a miniature wire protocol following the
// internal/cluster conventions — msg* uint8 constants, writeFrame/write send
// helpers, switch- and comparison-based dispatch.
package cluster

import "io"

const (
	msgHello uint8 = iota + 1
	msgTasks
	msgBusy
	msgIdle
	msgResult   // want `wire constant msgResult is never dispatched`
	msgGhost    // want `wire constant msgGhost is declared but never sent or dispatched`
	msgInbound  // want `wire constant msgInbound is never sent`
	msgOneWay   //graphpivet:ignore — peer is a legacy reader, send-only by design
	notAMessage // not msg-prefixed: ignored entirely
)

const msglowerx uint8 = 200 // lowercase after msg: not a wire constant

func writeFrame(w io.Writer, typ uint8, payload []byte) error {
	buf := append([]byte{typ}, payload...)
	_, err := w.Write(buf)
	return err
}

type link struct{ w io.Writer }

func (l *link) write(typ uint8, payload []byte) error {
	return writeFrame(l.w, typ, payload)
}

func master(l *link) error {
	if err := l.write(msgHello, nil); err != nil {
		return err
	}
	// Reassignment flow: the local may hold either constant by the time it
	// is sent, so both must count as sent (regression: a last-assignment-wins
	// alias map flagged msgBusy as never sent).
	reply := msgBusy
	if l.w == nil {
		reply = msgIdle
	}
	if err := l.write(reply, nil); err != nil {
		return err
	}
	if err := l.write(msgResult, nil); err != nil {
		return err
	}
	return l.write(msgOneWay, nil)
}

func dealer(w io.Writer) error {
	return writeFrame(w, msgTasks, []byte{1})
}

func dispatch(typ uint8) string {
	switch typ {
	case msgHello:
		return "hello"
	case msgTasks, msgInbound:
		return "tasks"
	default:
		if typ == msgBusy {
			return "busy"
		}
		if typ != msgIdle {
			return "unknown"
		}
		return "idle"
	}
}

var _ = notAMessage
var _ = msglowerx
var _ = msgGhost
