package par

import (
	"context"
	"runtime/pprof"
	"strconv"
)

// pprof goroutine labels for worker goroutines. Without them a CPU profile
// of a parallel run attributes every sample to anonymous par.(*Pool) spawn
// funcs; with them samples carry ("par_region", name) and ("par_worker", id)
// labels, so `go tool pprof -tagfocus par_region=permute` isolates one
// region (here the partition relabel). Label contexts are cached per
// (region, worker) on the pool — building a labeled context allocates, so
// steady-state regions reuse the first call's contexts and allocate nothing
// here. The inline one-worker path skips labeling: the caller's goroutine
// already attributes its samples to the calling stack, and overwriting its
// labels would clobber whatever the caller set.

// labelCtxs returns one labeled context per worker slot for a region,
// building and caching the slice on first use. Spawned worker goroutines
// call pprof.SetGoroutineLabels with their slot's context and exit with the
// goroutine, so no restore is needed.
func (p *Pool) labelCtxs(region string) []context.Context {
	p.labMu.Lock()
	defer p.labMu.Unlock()
	ctxs, ok := p.labels[region]
	if !ok {
		if p.labels == nil {
			p.labels = make(map[string][]context.Context)
		}
		ctxs = make([]context.Context, p.workers)
		for w := range ctxs {
			ctxs[w] = pprof.WithLabels(context.Background(),
				pprof.Labels("par_region", region, "par_worker", strconv.Itoa(w)))
		}
		p.labels[region] = ctxs
	}
	return ctxs
}
