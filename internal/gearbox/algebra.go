package gearbox

import "gearbox/internal/semiring"

// semOp names the machine's algebra once, at New and ResetForRun, so the
// per-entry ⊗, ⊕ and clean checks of steps 3, 5 and 6 switch on a byte
// instead of calling through the semiring.Semiring interface. Each case
// reproduces its algebra's method bit for bit; an algebra declared outside
// internal/semiring resolves to opIface and keeps the interface calls.
//
// mul, add and isZero must stay within the inliner's budget (check with
// go build -gcflags=-m), and an out-of-line call takes most of it. So
// each inlines only its hottest cases and sends the rest to one out-of-line
// helper.
type semOp uint8

const (
	opIface semOp = iota
	opPlusTimes
	opBoolOrAnd
	opMinPlus // opMinPlus and opMinFirst must stay last: add tests op >= opMinPlus
	opMinFirst
)

// resolveOp maps a semiring to its op code.
func resolveOp(s semiring.Semiring) semOp {
	switch s.(type) {
	case semiring.PlusTimes:
		return opPlusTimes
	case semiring.MinPlus:
		return opMinPlus
	case semiring.BoolOrAnd:
		return opBoolOrAnd
	case semiring.MinFirst:
		return opMinFirst
	}
	return opIface
}

// mul is the machine algebra's ⊗ (matrix value a, input value v). The
// explicit float32 conversion rounds the product on its own, as the method
// call did: the Go spec lets a compiler fuse an unconverted a*v feeding a
// later + into one FMA, which would change the low bits on targets that
// fuse.
//
//gearbox:steadystate
func (m *Machine) mul(a, v float32) float32 {
	switch m.op {
	case opPlusTimes:
		return float32(a * v)
	case opMinPlus:
		return a + v
	}
	return m.mulRest(a, v)
}

// mulRest is mul for min-first, bool-or-and and the interface fallback.
//
//gearbox:steadystate
func (m *Machine) mulRest(a, v float32) float32 {
	switch m.op {
	case opMinFirst:
		return v
	case opBoolOrAnd:
		if a != 0 && v != 0 {
			return 1
		}
		return 0
	}
	return m.sem.Mul(a, v)
}

// add is the machine algebra's ⊕. Min-plus and min-first return y when x
// is NaN or equal to y, as their Add methods do.
//
//gearbox:steadystate
func (m *Machine) add(x, y float32) float32 {
	if m.op >= opMinPlus {
		if x < y {
			return x
		}
		return y
	}
	return m.addRest(x, y)
}

// addRest is add for plus-times, bool-or-and and the interface fallback.
//
//gearbox:steadystate
func (m *Machine) addRest(x, y float32) float32 {
	switch m.op {
	case opPlusTimes:
		return x + y
	case opBoolOrAnd:
		if x != 0 || y != 0 {
			return 1
		}
		return 0
	}
	return m.sem.Add(x, y)
}

// isZero reports whether x is the clean value. For every built-in algebra
// that is exactly x == Zero(): 0 (either sign) for plus-times and
// bool-or-and, +Inf only for min-plus and min-first; NaN is never clean.
//
//gearbox:steadystate
func (m *Machine) isZero(x float32) bool {
	if m.op != opIface {
		return x == m.clean
	}
	return m.sem.IsZero(x)
}
