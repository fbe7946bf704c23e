package core

import (
	"math"
	"math/rand"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/voronoi"
	"laacad/internal/wsn"
)

// Batch-kernel dispatch: unless Config.DisableBatch is set, the per-node
// dominating-region pipeline runs on the structure-of-arrays kernel
// (voronoi.DominatingRegionSoA over slab-resident rel lists and polygon
// vertices) instead of the scalar clip pipeline. The two are bit-identical
// by contract — the SoA walk routes every arithmetic step through the same
// geom functions in the same order — so the dispatch is semantically
// invisible; what changes is the hot path's shape:
//
//   - The expanding-radius exactness search keeps its relevant-neighbor
//     slabs across ρ-doublings. Each doubling appends only the newly gathered
//     suffix (everything nearer is already present, in canonical (d², ID)
//     order) and sorts just that tail, where the scalar path rebuilds and
//     re-sorts the whole list per iteration.
//
//   - The search warm-starts at the node's last exactness radius (rhoHint)
//     instead of the density-based fallback guess, skipping the early
//     doubling iterations entirely in steady state. The final region is
//     bit-identical for any starting radius: the exactness predicate
//     2·R̂ ≤ ρ is what terminates the search, and generators beyond 2·R̂
//     leave both the clipping walk and its recursion bitwise untouched
//     (asserted by TestHintStartMatchesFallbackStart). The scalar oracle
//     deliberately keeps the fallback start so the two paths cross-check
//     the warm start, not just the kernel.

// batchOn reports whether the SoA batch kernel handles region computation.
func (e *Engine) batchOn() bool { return !e.cfg.DisableBatch }

// centralizedRegionSoA is centralizedRegionScratch on the batch kernel with
// an incremental rel list across ρ-doublings. startRho, when positive, warm-
// starts the expanding search (it is clamped up to the fallback guess, never
// down). The returned refs point into s.vor's slab and are valid until the
// next batch region computation on s.
func centralizedRegionSoA(net *wsn.Network, reg *region.Region, i, k int, startRho float64, s *Scratch) ([]geom.PolyRef, float64, float64) {
	n := net.Len()
	pieces := reg.Pieces()
	diag := reg.BBox().Diagonal()
	ui := net.Position(i)
	self := voronoi.Site{ID: i, Pos: ui}
	// Initial guess: enough radius to see ~4k neighbors in a uniform
	// deployment; grows geometrically until the exactness check passes.
	fallback := diag / math.Sqrt(float64(n)) * math.Sqrt(float64(4*k+4))
	rho := fallback
	if startRho > rho {
		rho = startRho
	}
	s.vor.ResetRel()
	prevRho2 := 0.0
	for {
		// Fused gather: distances come back alongside the IDs (the range
		// filter computed them anyway) and the per-gather ID sort is skipped —
		// SortRelTail establishes the canonical (d², ID) order regardless of
		// gather order.
		s.nbrs, s.nbrD2 = net.NeighborsWithinDistBuf(i, rho, s.nbrs, s.nbrD2)
		relStart := s.vor.RelLen()
		for idx, j := range s.nbrs {
			d2 := s.nbrD2[idx]
			if d2 < prevRho2 {
				continue // already in the rel slabs from the previous radius
			}
			s.vor.AppendRel(self, voronoi.Site{ID: j, Pos: net.Position(j)}, d2)
		}
		s.vor.SortRelTail(relStart)
		refs := voronoi.DominatingRegionSoA(self, k, pieces, &s.vor)
		rhat := voronoi.MaxDistFromRefs(ui, &s.vor.Slab, refs)
		if 2*rhat <= rho || len(s.nbrs) == n-1 || rho > 4*diag {
			s.searchRho = rho // pre-tightening: the radius actually read
			// Tighten the returned radius toward the exactness threshold.
			// The doubling search overshoots — its final ρ lands anywhere in
			// [2R̂, 4R̂) — and since the return value seeds both the node's
			// cache-invalidation ball and the next search's warm start, the
			// overshoot compounds: a hint of 4R̂ gathers and sorts up to 4×
			// the neighbors the region needs. Any value ≥ 2R̂ is conservative
			// for invalidation (generators beyond 2R̂ cannot change the
			// region), and the warm start is exactness-checked anyway; 2.1R̂
			// leaves a 5% slack band over the threshold (numerical margin,
			// plus headroom for small region growth) while keeping both the
			// invalidation ball and the next gather close to minimal. Never
			// raised above the search's ρ, so the degenerate exits (whole
			// network visited, runaway radius) keep their current value.
			if t := math.Max(2.1*rhat, fallback); t < rho {
				rho = t
			}
			return refs, rho, rhat
		}
		prevRho2 = rho * rho
		rho *= 2
	}
}

// chebyshevOfRefs is ChebyshevOfRegion for slab-resident regions.
func chebyshevOfRefs(s *Scratch, refs []geom.PolyRef) (geom.Point, float64) {
	s.verts = voronoi.VerticesOfRefsInto(s.verts[:0], &s.vor.Slab, refs)
	return geom.ChebyshevCenterInPlace(s.verts)
}

// stepNodeCentralizedBatch is stepNodeCentralized on the batch kernel,
// warm-starting the expanding search at the node's last exactness radius.
func (e *Engine) stepNodeCentralizedBatch(i int, s *Scratch) (nodeOutcome, float64) {
	ui := e.net.Position(i)
	var hint float64
	if i < len(e.rhoHint) {
		hint = e.rhoHint[i]
	}
	refs, rho, rhat := centralizedRegionSoA(e.net, e.reg, i, e.cfg.K, hint, s)
	e.batchNodes.Add(1)
	if len(refs) == 0 {
		// Pathological (e.g. node crowded out numerically): stand still.
		return nodeOutcome{next: ui, empty: true}, rho
	}
	ci, ri := chebyshevOfRefs(s, refs)
	out := nodeOutcome{
		next: ui,
		ri:   ri,
		rhat: rhat,
	}
	if e.cfg.KeepRegions {
		out.polys = voronoi.CompactRefs(&s.vor.Slab, refs)
	}
	e.finishMove(ui, ci, &out)
	return out, rho
}

// localizedRegionRefs is the batch-kernel assembly of localizedRegionOf: the
// expanding-ring search (and its message accounting) is shared verbatim; only
// the region construction runs on the slabs.
func (e *Engine) localizedRegionRefs(i int, isBoundary bool, rng *rand.Rand, s *Scratch) ([]geom.PolyRef, float64) {
	ui := e.net.Position(i)
	nbrIDs, rho, clipToRing, invRad := e.localizedSearch(i, isBoundary, rng, s)
	self := voronoi.Site{ID: i, Pos: ui}
	s.vor.ResetRel()
	for _, j := range nbrIDs {
		pj := e.net.Position(j)
		s.vor.AppendRel(self, voronoi.Site{ID: j, Pos: pj}, pj.Dist2(ui))
	}
	s.vor.SortRelTail(0)
	refs := voronoi.DominatingRegionSoA(self, e.cfg.K, e.reg.Pieces(), &s.vor)
	if clipToRing {
		refs = clipToDiskRefs(refs, geom.Circle{Center: ui, R: rho / 2}, s)
	}
	return refs, invRad
}

// clipToDiskRefs is clipToDisk on the slabs.
func clipToDiskRefs(refs []geom.PolyRef, disk geom.Circle, s *Scratch) []geom.PolyRef {
	if disk.R <= 0 {
		return nil
	}
	s.ring = geom.AppendCirclePoints(s.ring[:0], disk, 48, math.Pi/48)
	return s.vor.ClipToConvexSoA(refs, geom.Polygon(s.ring))
}

// stepNodeLocalizedBatch is stepNodeLocalized on the batch kernel.
func (e *Engine) stepNodeLocalizedBatch(i int, isBoundary bool, rng *rand.Rand, s *Scratch) (nodeOutcome, float64) {
	ui := e.net.Position(i)
	refs, inv := e.localizedRegionRefs(i, isBoundary, rng, s)
	e.batchNodes.Add(1)
	if len(refs) == 0 {
		return nodeOutcome{next: ui, empty: true}, inv
	}
	ci, ri := chebyshevOfRefs(s, refs)
	out := nodeOutcome{
		next: ui,
		ri:   ri,
		rhat: voronoi.MaxDistFromRefs(ui, &s.vor.Slab, refs),
	}
	if e.cfg.KeepRegions {
		out.polys = voronoi.CompactRefs(&s.vor.Slab, refs)
	}
	e.finishMove(ui, ci, &out)
	return out, inv
}
