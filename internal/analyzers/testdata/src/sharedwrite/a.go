// Fixture for the sharedwrite analyzer: writes inside Pool.ForEach and
// Pool.ForEachBlock worker bodies must be provably worker-private — rooted
// at a worker-, index- or block-derived index, covered by an ownership
// guard, or justified with //gearbox:nondet-ok <reason>. The Pool type is
// local: matching is name-based, like the real par.Pool. Both entry points
// take the worker fn as their LAST argument (the region name and counts come
// first).
package sharedwrite

type Pool struct{ workers int }

func (p *Pool) ForEach(region string, n int, fn func(w, i int))                  {}
func (p *Pool) ForEachBlock(region string, n, nb int, fn func(w, b, lo, hi int)) {}

func capturedScalar(p *Pool, xs []int) int {
	total := 0
	p.ForEach("sum", len(xs), func(w, i int) {
		total += xs[i] // want "write to captured variable total"
	})
	return total
}

func perIndexIsFine(p *Pool, xs []int) []int {
	out := make([]int, len(xs))
	p.ForEach("map", len(xs), func(w, i int) {
		out[i] = xs[i] * 2
	})
	return out
}

func fixedSlot(p *Pool, xs, dst []int) {
	p.ForEach("scatter", len(xs), func(w, i int) {
		dst[0] += xs[i] // want "write to shared dst"
	})
}

func workerPrivateAlloc(p *Pool, xs []int, sums []int) {
	p.ForEach("alloc", len(xs), func(w, i int) {
		scratch := make([]int, 4)
		scratch[0] = xs[i]
		sums[w] = scratch[0]
	})
}

func ownershipGuard(p *Pool, owner, dst []int) {
	p.ForEachBlock("fold", len(owner), 4, func(w, b, lo, hi int) {
		for idx, o := range owner {
			if idx < lo || idx >= hi {
				continue
			}
			dst[idx] = o
		}
	})
}

func racyMapWrite(p *Pool, m map[string]int, keys []string) {
	p.ForEach("keys", len(keys), func(w, i int) {
		m["total"]++ // want "write to shared map m"
	})
}

func justifiedMapWrite(p *Pool, m map[string]int, n int) {
	p.ForEach("keys", n, func(w, i int) {
		//gearbox:nondet-ok single-writer bucket: this pool is constructed with one worker
		m["total"]++
	})
}

func reasonlessAnnotation(p *Pool, n int, flags []bool) {
	p.ForEach("flags", n, func(w, i int) {
		//gearbox:nondet-ok
		flags[0] = true // want "nondet-ok needs a reason"
	})
}

func blockCapturedScalar(p *Pool, n int) int {
	total := 0
	p.ForEachBlock("sum", n, 4, func(w, b, lo, hi int) {
		total += hi - lo // want "write to captured variable total"
	})
	return total
}

func blockSharedSlot(p *Pool, xs, dst []int) {
	p.ForEachBlock("scatter", len(xs), 4, func(w, b, lo, hi int) {
		dst[0] += xs[lo] // want "write to shared dst"
	})
}

func blockKeyedScratchIsFine(p *Pool, n int) []int {
	kept := make([]int, 4)
	p.ForEachBlock("count", n, 4, func(w, b, lo, hi int) {
		kept[b] = hi - lo
	})
	return kept
}

func blockLeak(p *Pool, owner, dst []int, leak []int) {
	p.ForEachBlock("fold", len(owner), 4, func(w, b, lo, hi int) {
		for idx, o := range owner {
			if idx < lo || idx >= hi {
				continue
			}
			dst[idx] = o
		}
		leak[0] = b // want "write to shared leak"
	})
}
