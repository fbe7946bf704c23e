package core

import (
	"math"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/voronoi"
	"laacad/internal/wsn"
)

// Scratch is the per-worker workspace of the deployment hot path: the
// geometry kernel's polygon arena plus the neighbor-ID, site and vertex
// buffers threaded through the dominating-region → Chebyshev-center
// pipeline. One Scratch serves one goroutine; the round engine keeps one per
// worker so a steady-state round performs near-zero heap allocations. The
// zero value is ready to use.
type Scratch struct {
	vor   voronoi.Scratch
	nbrs  []int
	nbrD2 []float64 // squared distances parallel to nbrs (batch gather)
	sites []voronoi.Site
	verts []geom.Point
	ring  []geom.Point // circle-sample / disk-clip ring (Localized mode)

	// searchRho is the expanding search's final (pre-tightening) radius from
	// the last centralized region computation: the widest ball the search
	// actually read positions from, reported as StepOutcome.ReadRad (the
	// tightened return value under-reports what was gathered).
	searchRho float64
}

// NewScratch returns an empty workspace. Buffers grow on first use and are
// retained across calls.
func NewScratch() *Scratch { return &Scratch{} }

// ChebyshevOfRegion returns the Chebyshev center and circumradius of a
// dominating region (the smallest-enclosing-circle of its vertices), using
// s's vertex buffer so the computation does not allocate.
func ChebyshevOfRegion(polys []geom.Polygon, s *Scratch) (geom.Point, float64) {
	s.verts = voronoi.VerticesInto(s.verts[:0], polys)
	return geom.ChebyshevCenterInPlace(s.verts)
}

// CentralizedDominatingRegion computes node i's dominating region over the
// network's current positions from global knowledge, using an
// exactness-checked expanding radius: a region computed from all nodes
// within distance ρ of u_i is globally exact as soon as its circumradius-
// from-u_i satisfies R̂ ≤ ρ/2, because every generator that could beat u_i
// at a point within R̂ of u_i lies within 2·R̂ ≤ ρ of u_i. It is shared by
// the round Engine and the asynchronous event-driven simulator.
func CentralizedDominatingRegion(net *wsn.Network, reg *region.Region, i, k int) []geom.Polygon {
	polys, _, _ := centralizedRegionScratch(net, reg, i, k, NewScratch())
	return polys
}

// CentralizedDominatingRegionScratch is CentralizedDominatingRegion with a
// reusable workspace: a warmed-up Scratch computes the region without heap
// allocation. The returned polygons are valid only until the next
// region computation on s; copy them with voronoi.CompactRegion to keep
// them.
func CentralizedDominatingRegionScratch(net *wsn.Network, reg *region.Region, i, k int, s *Scratch) []geom.Polygon {
	polys, _, _ := centralizedRegionScratch(net, reg, i, k, s)
	return polys
}

// centralizedRegionScratch runs the expanding-radius search on s and
// additionally returns the final search radius ρ — the exactness radius the
// incremental engine uses for cache invalidation: the computation read only
// positions of nodes within ρ of u_i, so the cached result stays
// bit-reproducible until some position inside that ball changes — and the
// region's circumradius R̂ about u_i (computed as a by-product of the
// exactness check).
func centralizedRegionScratch(net *wsn.Network, reg *region.Region, i, k int, s *Scratch) ([]geom.Polygon, float64, float64) {
	n := net.Len()
	pieces := reg.Pieces()
	diag := reg.BBox().Diagonal()
	ui := net.Position(i)
	self := voronoi.Site{ID: i, Pos: ui}
	// Initial guess: enough radius to see ~4k neighbors in a uniform
	// deployment; grows geometrically until the exactness check passes.
	rho := diag / math.Sqrt(float64(n)) * math.Sqrt(float64(4*k+4))
	for {
		s.nbrs = net.NeighborsWithinBuf(i, rho, s.nbrs)
		s.sites = s.sites[:0]
		for _, j := range s.nbrs {
			s.sites = append(s.sites, voronoi.Site{ID: j, Pos: net.Position(j)})
		}
		polys := voronoi.DominatingRegionScratch(self, s.sites, k, pieces, &s.vor)
		rhat := voronoi.MaxDistFrom(ui, polys)
		if 2*rhat <= rho || len(s.nbrs) == n-1 || rho > 4*diag {
			s.searchRho = rho
			return polys, rho, rhat
		}
		rho *= 2
	}
}
