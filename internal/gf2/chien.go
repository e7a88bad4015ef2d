package gf2

// Chien is a reusable workspace for incremental polynomial evaluation at
// the successive points α^0, α^1, α^2, ... — the access pattern of a Chien
// root search. For table-backed fields (m ≤ tableThreshold) each term
// c_j·x^j is tracked in the log domain: advancing from α^i to α^(i+1)
// multiplies term j by the fixed constant α^j, which is one modular
// addition of j to the term's discrete log plus one antilog lookup. That
// replaces the general-multiplication chain of a Horner evaluation with
// per-term constant multiplies, and allocates nothing after the workspace
// warms up.
//
// A Chien value is not safe for concurrent use; give each goroutine its
// own workspace.
type Chien struct {
	f     *Field
	c0    uint64   // constant coefficient, contributed verbatim to every point
	logs  []uint64 // discrete log of term j's current value c_j·α^(i·j)
	steps []uint64 // per-term log increment j (mod 2^m − 1)
	acc   []uint64 // per-point accumulator for the transposed bulk scan
}

// Init prepares ws to evaluate the polynomial with coefficients p
// (ascending degree order) at α^0, α^1, .... It reports false when the
// field has no log tables (m > tableThreshold); callers must then fall
// back to a different evaluation strategy. Zero coefficients cost nothing
// per step.
func (ws *Chien) Init(f *Field, p []uint64) bool {
	if f.logT == nil {
		return false
	}
	ws.f = f
	ws.logs = ws.logs[:0]
	ws.steps = ws.steps[:0]
	ws.c0 = 0
	if len(p) == 0 {
		return true
	}
	ws.c0 = p[0]
	for j := 1; j < len(p); j++ {
		if p[j] == 0 {
			continue
		}
		step := uint64(j) % f.ord
		if step == 0 {
			// x^j is identically 1 on the multiplicative group: the term
			// is a constant and folds into c0.
			ws.c0 ^= p[j]
			continue
		}
		ws.logs = append(ws.logs, uint64(f.logT[p[j]]))
		ws.steps = append(ws.steps, step)
	}
	return true
}

// Next returns p(α^i) for the i-th call since Init (starting at i = 0)
// and advances the workspace to the next point.
func (ws *Chien) Next() uint64 {
	acc := ws.c0
	f := ws.f
	steps := ws.steps
	for k, l := range ws.logs {
		acc ^= f.expT[l]
		l += steps[k]
		if l >= f.ord {
			l -= f.ord
		}
		ws.logs[k] = l
	}
	return acc
}

// chienAccLimit caps the group order for which the transposed bulk scan
// keeps a per-point accumulator (128 KiB of workspace at the limit);
// larger table fields fall back to the point-at-a-time loop.
const chienAccLimit = 1 << 14

// Zeros scans one full multiplicative-group cycle of points α^i starting
// from the workspace's current position (α^0 right after Init), appending
// to dst the step offsets i at which the polynomial evaluates to zero. It
// returns once dst holds limit zeros, and may leave the
// incremental cursor in an unspecified position — call Init again before
// reusing the workspace.
//
// For moderate group orders the scan runs transposed — four terms a pass
// over a per-point accumulator, each term walking the antilog table with
// its own stride — and the last pass stops at each zero. This is markedly
// faster than evaluating point by point.
func (ws *Chien) Zeros(dst []uint64, limit int) []uint64 {
	if limit <= 0 {
		return dst
	}
	f := ws.f
	ord := f.ord
	if len(ws.logs) == 0 {
		// Constant polynomial: zero everywhere or nowhere.
		for i := uint64(0); ws.c0 == 0 && i < ord && len(dst) < limit; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	if ord > chienAccLimit {
		return ws.zerosByPoint(dst, limit)
	}
	if uint64(cap(ws.acc)) < ord {
		ws.acc = make([]uint64, ord)
	}
	acc := ws.acc[:ord]
	clear(acc)
	// Pad the terms to a multiple of four with constants 1 = α^0, never
	// advanced, each folded into c0 to cancel.
	for len(ws.logs)&3 != 0 {
		ws.logs = append(ws.logs, 0)
		ws.steps = append(ws.steps, 0)
		ws.c0 ^= 1
	}
	last := len(ws.logs) - 4
	for k := 0; k <= last; k += 4 {
		// Only the last pass sees whole sums, p(α^i) = 0 ⟺ Σ terms = c0;
		// the others stop at nothing a field element can equal.
		stop := ^uint64(0)
		if k == last {
			stop = ws.c0
		}
		cur, steps := [4]uint64(ws.logs[k:]), (*[4]uint64)(ws.steps[k:])
		// expT is two cycles long, so a cursor below ord may run on for
		// ord/step points before it has to wrap: the cursors wrap between
		// chunks that long, not inside the walk over a chunk's points.
		chunk := int(ord / max(steps[0], steps[1], steps[2], steps[3], 1))
		for i := 0; i < len(acc); {
			for end := min(i+chunk, len(acc)); i < end; {
				i += walkTerms(f.expT, acc[i:end], &cur, steps, stop)
				if acc[i-1] == stop {
					if dst = append(dst, uint64(i-1)); len(dst) >= limit {
						return dst
					}
				}
			}
			for t, l := range cur {
				if l >= ord {
					cur[t] = l - ord
				}
			}
		}
	}
	return dst
}

// walkTerms XORs into each acc[i] in turn the four terms whose logarithms
// are cur at acc[0] and grow by steps from one point to the next, until a
// sum comes to stop or acc ends. It returns the points walked and leaves cur
// at the point after them. It is a function of its own so that the cursors
// and the index are all its loop keeps in registers.
func walkTerms(expT, acc []uint64, cur, steps *[4]uint64, stop uint64) int {
	l0, l1, l2, l3 := cur[0], cur[1], cur[2], cur[3]
	st := *steps
	n := len(acc)
	for i := range acc {
		v := acc[i] ^ expT[l0] ^ expT[l1] ^ expT[l2] ^ expT[l3]
		acc[i] = v
		l0, l1, l2, l3 = l0+st[0], l1+st[1], l2+st[2], l3+st[3]
		if v == stop {
			n = i + 1
			break
		}
	}
	cur[0], cur[1], cur[2], cur[3] = l0, l1, l2, l3
	return n
}

// zerosByPoint is the point-at-a-time variant of Zeros used when the
// group order would make the transposed accumulator too large. It
// advances the workspace past the points it consumes.
func (ws *Chien) zerosByPoint(dst []uint64, max int) []uint64 {
	ord := ws.f.ord
	for i := uint64(0); i < ord; i++ {
		if ws.Next() == 0 {
			dst = append(dst, i)
			if len(dst) >= max {
				break
			}
		}
	}
	return dst
}
