package fleet

import (
	"fmt"

	"psigene/internal/core"
	"psigene/internal/ids"
)

// ReloadAll loads a hash-verified model artifact directory (see
// core.LoadArtifact) and installs it fleet-wide through the
// two-phase protocol. Returns the new fleet generation on success; every
// failure path leaves all replicas serving exactly what they were.
func (f *Front) ReloadAll(path string) (uint64, error) {
	m, man, err := core.LoadArtifact(path)
	if err != nil {
		f.stats.reloadFailures.Add(1)
		return 0, fmt.Errorf("fleet: reload rejected: %w", err)
	}
	return f.SwapAllTagged(m, man.Version, man.ModelSHA256)
}

// SwapAllTagged installs det on every replica or on none — the
// single-gateway validate-probe-swap invariant extended across the fleet.
//
// Phase 1 (probe): every replica probes the candidate (plus the ProbeHook
// seam). Any failure rejects the candidate fleet-wide before any replica
// has swapped, so a candidate that would be refused anywhere is refused
// everywhere. Sensor fleets that deploy signatures inconsistently silently
// reopen the holes the signatures closed; probing everywhere first is what
// rules that out.
//
// Phase 2 (commit): under the exclusive serve barrier — no request is in
// flight and none can start — save each replica's serving state, then swap
// each replica (CommitHook seam first). On a partial failure the committed
// replicas are rolled back to their saved state, so the barrier is
// released only ever onto a uniform fleet.
func (f *Front) SwapAllTagged(det ids.Detector, version, hash string) (uint64, error) {
	f.reloadMu.Lock()
	defer f.reloadMu.Unlock()
	if det == nil {
		f.stats.reloadFailures.Add(1)
		return 0, fmt.Errorf("fleet: reload rejected: nil detector")
	}

	// Phase 1: probe everywhere, commit nowhere. Runs outside the serve
	// barrier — probing is read-only, so traffic keeps flowing while the
	// candidate is vetted N times.
	for _, rep := range f.replicas {
		if err := rep.gw.ProbeDetector(det); err != nil {
			f.stats.reloadFailures.Add(1)
			return 0, fmt.Errorf("fleet: replica %d probe: %w", rep.id, err)
		}
		if f.opts.ProbeHook != nil {
			if err := f.opts.ProbeHook(rep.id, det); err != nil {
				f.stats.reloadFailures.Add(1)
				return 0, fmt.Errorf("fleet: replica %d probe: %w", rep.id, err)
			}
		}
	}

	// Phase 2: commit under the serve barrier so no request ever runs
	// against a half-swapped fleet.
	f.serveMu.Lock()
	defer f.serveMu.Unlock()

	type saved struct {
		det           ids.Detector
		version, hash string
	}
	prev := make([]saved, len(f.replicas))
	for i, rep := range f.replicas {
		d, _, v, h := rep.gw.ServingModel()
		prev[i] = saved{det: d, version: v, hash: h}
	}

	for i, rep := range f.replicas {
		var err error
		if f.opts.CommitHook != nil {
			err = f.opts.CommitHook(rep.id)
		}
		if err == nil {
			_, err = rep.gw.SwapTagged(det, version, hash)
		}
		if err == nil {
			continue
		}

		// Partial failure: unwind replicas 0..i-1 to their saved serving
		// state. Rollbacks route through SwapTagged too, so even the
		// unwind path honors probe-before-swap.
		f.stats.reloadFailures.Add(1)
		f.stats.rollbacks.Add(1)
		for j := i - 1; j >= 0; j-- {
			if _, rbErr := f.replicas[j].gw.SwapTagged(prev[j].det, prev[j].version, prev[j].hash); rbErr != nil {
				// A replica that cannot restore its own previous model is
				// stranded on the new one — the single state this design
				// must never serve from. Eject it outright: serving
				// nothing beats serving a different signature set than
				// the rest of the fleet.
				f.stats.rollbackFailures.Add(1)
				f.replicas[j].down.Store(true)
			}
		}
		return 0, fmt.Errorf("fleet: replica %d commit: %w", rep.id, err)
	}

	f.stats.reloads.Add(1)
	return f.gen.Add(1), nil
}
