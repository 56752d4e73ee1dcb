package online

import (
	"sort"

	"lam/internal/ml"
)

// versionAPE is the served-accuracy ring of one (model, version). Like
// window it is unsynchronised: the model's state lock guards it. A
// separate ring per version — rather than a version tag on the main
// window — keeps the retraining plane untouched while giving /metrics
// the per-version accuracy series (lam_served_ape{model,version}) a
// progressive-delivery controller compares across a canary and its
// baseline.
type versionAPE struct {
	win *ml.APEWindow
	// last is the model's apeSeq at this version's latest observation.
	last uint64
}

// keepAPEVersions bounds the per-version rings kept per model: the
// serving fleet only ever compares a handful of live versions (the
// incumbent, a canary, and recent history); rings for long-retired
// versions would grow the scrape without informing anyone.
const keepAPEVersions = 4

// ServedAPE is one (model, version)'s served-accuracy summary: APE
// quantiles in percent over the version's recent observations.
type ServedAPE struct {
	Model   string  `json:"model"`
	Version int     `json:"version"`
	Count   int     `json:"count"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
}

// ServedAPE reports every tracked (model, version)'s quantiles, sorted
// by model then version — the backing data of lam_served_ape.
func (p *Plane) ServedAPE() []ServedAPE {
	p.mu.Lock()
	type entry struct {
		name string
		st   *modelState
	}
	entries := make([]entry, 0, len(p.models))
	for name, st := range p.models {
		entries = append(entries, entry{name, st})
	}
	p.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	var out []ServedAPE
	for _, e := range entries {
		e.st.mu.Lock()
		versions := make([]int, 0, len(e.st.ape))
		for v := range e.st.ape {
			versions = append(versions, v)
		}
		sort.Ints(versions)
		for _, v := range versions {
			w := e.st.ape[v].win
			if qs := w.Quantiles(0.5, 0.9, 0.99); qs != nil {
				out = append(out, ServedAPE{
					Model: e.name, Version: v, Count: w.Len(),
					P50: qs[0], P90: qs[1], P99: qs[2],
				})
			}
		}
		e.st.mu.Unlock()
	}
	return out
}

// recordAPELocked feeds one observation's APE into the ring for the
// served version, creating the ring on first sight. Past
// keepAPEVersions it evicts the least recently observed version, never
// the live incumbent that keeps receiving traffic while canaries come
// and go. Caller holds st.mu.
func (st *modelState) recordAPELocked(version, capacity int, observed, predicted float64) {
	if st.ape == nil {
		st.ape = make(map[int]*versionAPE)
	}
	st.apeSeq++
	va := st.ape[version]
	if va == nil {
		if len(st.ape) >= keepAPEVersions {
			stale := -1
			for v, o := range st.ape {
				if stale < 0 || o.last < st.ape[stale].last {
					stale = v
				}
			}
			delete(st.ape, stale)
		}
		va = &versionAPE{win: ml.NewAPEWindow(capacity)}
		st.ape[version] = va
	}
	va.last = st.apeSeq
	if ape, ok := ml.APE(observed, predicted); ok {
		va.win.Add(ape)
	}
}
