package core

import (
	"fmt"
	"math/rand"

	"laacad/internal/boundary"
	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/voronoi"
	"laacad/internal/wsn"
)

// Stepper exposes the per-node computation of Engine.Step — dominating
// region, Chebyshev center, motion rule, Localized message accounting — over
// a caller-owned wsn.Network, with the round's inputs (warm-start hint,
// boundary flag, loss stream) passed explicitly instead of read from engine
// state. It runs exactly the kernels and search loops the engine runs, so a
// caller can replay or time one node's step in isolation.
type Stepper struct {
	eng *Engine
}

// NewStepper validates cfg against the node count n — applying exactly
// the defaults Engine's constructor would (RingCap, detector, loss retries,
// arc samples) — and returns a stepper with no network attached yet. The
// normalized configuration is readable via Config.
func NewStepper(reg *region.Region, n int, cfg Config) (*Stepper, error) {
	if reg == nil {
		return nil, fmt.Errorf("core: nil region")
	}
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	if cfg.RingCap == 0 {
		cfg.RingCap = reg.BBox().Diagonal() + cfg.Gamma
	}
	det := cfg.Detector
	if det == nil {
		det = boundary.AngularGap{}
	}
	return &Stepper{eng: &Engine{cfg: cfg, reg: reg, detector: det}}, nil
}

// Config returns the normalized configuration (defaults applied).
func (st *Stepper) Config() Config { return st.eng.cfg }

// Detector returns the boundary detector (the configured one, or the default
// angular-gap detector).
func (st *Stepper) Detector() boundary.Detector { return st.eng.detector }

// IndexGamma returns the cell-sizing gamma a network must be constructed
// with so its spatial index and radio range match the engine's (Localized
// queries and boundary detection read net.Gamma(), so this is a correctness
// requirement, not a tuning choice).
func (st *Stepper) IndexGamma() float64 {
	if g := st.eng.cfg.Gamma; g > 0 {
		return g
	}
	return st.eng.reg.BBox().Diagonal() * 1e-3
}

// SetNetwork attaches the network the next computations read (and, in
// Localized mode, charge). The caller owns it; the stepper never mutates
// positions.
func (st *Stepper) SetNetwork(net *wsn.Network) { st.eng.net = net }

// StepOutcome is one node's round computation together with the radii of
// the positions it read.
type StepOutcome struct {
	// Next is the node's position after the motion rule (unchanged when the
	// node stands still).
	Next geom.Point
	// Ri is the circumradius of the dominating region (stats input) and Rhat
	// the max vertex distance from the current position (the convergence
	// quantity R̂ and the converged-Finalize radius).
	Ri, Rhat float64
	// MoveDist and Moved mirror the motion rule's outputs; Empty marks the
	// pathological empty-region case (node stands still, excluded from
	// stats extrema).
	MoveDist float64
	Moved    bool
	Empty    bool
	// Polys holds the compacted dominating region when Config.KeepRegions is
	// set (nil otherwise).
	Polys []geom.Polygon
	// ReadRad is the radius of the ball around the node's position the
	// computation actually read positions from: for Centralized, the
	// expanding search's final pre-tightening radius; for Localized, the
	// search's invalidation radius (hop-limited rings inflated to whole
	// hops, floored at γ).
	ReadRad float64
	// InvRad is the cache-invalidation radius: the outcome stays valid until
	// some position within InvRad of the node changes. It doubles as the
	// next search's warm-start hint. (Centralized tightens it below ReadRad;
	// Localized reports ReadRad itself.)
	InvRad float64
}

// StepNode computes node i's round outcome on the attached network. hint
// warm-starts the Centralized expanding search (pass the node's last InvRad,
// or 0). isBoundary and rng apply in Localized mode only: the boundary flag
// as start-of-round truth, and the node's private loss stream (nil when
// LossRate is 0). Localized searches charge the attached network's counters
// for node i — callers measure a computation's cost by diffing NodeMessages
// around the call.
func (st *Stepper) StepNode(i int, hint float64, isBoundary bool, rng *rand.Rand, s *Scratch) StepOutcome {
	e := st.eng
	if e.cfg.Mode == Localized {
		out, inv := e.stepNodeLocalized(i, isBoundary, rng, s)
		return exportOutcome(out, inv, inv)
	}
	ui := e.net.Position(i)
	var out nodeOutcome
	var rho float64
	if e.batchOn() {
		refs, r, rhat := centralizedRegionSoA(e.net, e.reg, i, e.cfg.K, hint, s)
		rho = r
		if len(refs) == 0 {
			out = nodeOutcome{next: ui, empty: true}
		} else {
			ci, ri := chebyshevOfRefs(s, refs)
			out = nodeOutcome{next: ui, ri: ri, rhat: rhat}
			if e.cfg.KeepRegions {
				out.polys = voronoi.CompactRefs(&s.vor.Slab, refs)
			}
			e.finishMove(ui, ci, &out)
		}
	} else {
		polys, r, rhat := centralizedRegionScratch(e.net, e.reg, i, e.cfg.K, s)
		rho = r
		if len(polys) == 0 {
			out = nodeOutcome{next: ui, empty: true}
		} else {
			ci, ri := ChebyshevOfRegion(polys, s)
			out = nodeOutcome{next: ui, ri: ri, rhat: rhat}
			if e.cfg.KeepRegions {
				out.polys = voronoi.CompactRegion(polys)
			}
			e.finishMove(ui, ci, &out)
		}
	}
	return exportOutcome(out, s.searchRho, rho)
}

// exportOutcome converts the internal outcome to the exported mirror.
func exportOutcome(out nodeOutcome, readRad, invRad float64) StepOutcome {
	return StepOutcome{
		Next:     out.next,
		Ri:       out.ri,
		Rhat:     out.rhat,
		MoveDist: out.moveDist,
		Moved:    out.moved,
		Empty:    out.empty,
		Polys:    out.polys,
		ReadRad:  readRad,
		InvRad:   invRad,
	}
}
