package core

import (
	"math/bits"

	"graphpi/internal/taskpool"
)

// memo serves the repeated evaluations of one loop-invariant step
// (codegen.Step.Memo) for one worker. Under a fixed context — the vertices
// bound at the step's Memo positions — the step's output is a function of the
// key v_Depth alone, so the table maps keys to outputs and is emptied when any
// context vertex changes. Emptying costs one store per key the context filled.
//
// The memory is allocated once, when the worker is built, and never grows:
// an open-addressing table of twice the largest degree (a context's keys come
// from one candidate set, at most MaxDegree of them) and a result arena of
// memoDataPerDegree × MaxDegree words. A miss that finds the table half full
// or the arena without room is computed and returned but not stored, so a
// context with more results than fit costs only the hits it forgoes.
//
// Every slice the memo hands out stays valid until the step runs again: the
// arena is rewritten only after a context change, and a miss computes into
// scratch — never into a stored result a deeper loop may still be reading —
// before it copies the output in.
type memo struct {
	_ taskpool.LinePad
	// ctx holds the context vertices the table's entries were computed under.
	ctx   []uint32
	shift uint8 // 32 - log2(len(slots))
	// slots[h] holds a key and ref, the arena offset of its output, whose
	// length is stored just before it (ref 0: empty slot); filled lists the
	// occupied slots, to empty them.
	slots   []memoSlot
	filled  []uint32
	data    []uint32 // entries: the output's length, then the output
	scratch []uint32
	_       taskpool.LinePad
}

type memoSlot struct{ key, ref uint32 }

// memoDataPerDegree sizes a memo's result arena in units of the graph's
// largest degree: a context's outputs are subsets of its keys'
// neighbourhoods, and on sparse graphs they are short.
const memoDataPerDegree = 4

func newMemo(contextLen, maxDeg int) *memo {
	logSlots := bits.Len(uint(2*max(maxDeg, 1) - 1))
	return &memo{
		ctx:     taskpool.Owned[uint32](contextLen, contextLen),
		shift:   uint8(32 - logSlots),
		slots:   taskpool.Owned[memoSlot](1<<logSlots, 1<<logSlots),
		filled:  taskpool.Owned[uint32](0, 1<<(logSlots-1)),
		data:    taskpool.Owned[uint32](0, memoDataPerDegree*maxDeg),
		scratch: taskpool.Owned[uint32](0, maxDeg),
	}
}

// lookup returns key's stored output under the context the positions ctx
// bind, or the slot to store it in and false. A context change empties the
// table first.
func (m *memo) lookup(bound []uint32, ctx []uint8, key uint32) ([]uint32, int, bool) {
	changed := false
	for i, p := range ctx {
		if v := bound[p]; m.ctx[i] != v {
			m.ctx[i], changed = v, true
		}
	}
	if changed {
		for _, h := range m.filled {
			m.slots[h].ref = 0
		}
		m.filled, m.data = m.filled[:0], m.data[:0]
	}
	mask := len(m.slots) - 1
	for h := int((key * 0x9e3779b1) >> m.shift); ; h = (h + 1) & mask {
		s := m.slots[h]
		if s.ref == 0 {
			return nil, h, false
		}
		if s.key == key {
			n := m.data[s.ref-1]
			return m.data[s.ref : s.ref+n : s.ref+n], h, true
		}
	}
}

// store records out, a miss's output computed into scratch, as key's entry
// in slot h, if the table and the arena have room for it.
func (m *memo) store(h int, key uint32, out []uint32) {
	off := len(m.data)
	if len(m.filled) == cap(m.filled) || 1+len(out) > cap(m.data)-off {
		return
	}
	m.data = append(append(m.data, uint32(len(out))), out...)
	m.slots[h] = memoSlot{key: key, ref: uint32(off + 1)}
	m.filled = append(m.filled, uint32(h))
}
