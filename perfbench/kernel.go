package main

import (
	"fmt"
	"time"

	"laacad/internal/boundary"
	"laacad/internal/core"
	"laacad/internal/geom"
	"laacad/internal/scenario"
	"laacad/internal/voronoi"
	"laacad/internal/wsn"
)

const (
	replayNodes  = 200 // nodes sampled from each capture
	replayPasses = 5   // timed passes; each metric is the median pass
)

// replayKernels times the kernel layers one call at a time, after the timed
// phase, on positions captured during the traced one: Stepper.StepNode
// (gather, region and centre together), then its parts on their own —
// NeighborsWithinDistBuf, DominatingRegionBatch over the region's pieces,
// SmallestEnclosingCircle of the region's vertices — and the Localized
// helpers RingQuery and BoundaryNode. Every call reads the positions only,
// so the replay is a pure function of the capture.
func replayKernels(m map[string]float64, caps []capture) error {
	reg, err := scenario.LookupRegion("square")
	if err != nil {
		return err
	}
	times := map[string][]float64{}
	var nbrs, verts, regions float64
	for _, c := range caps {
		st, err := core.NewStepper(reg, len(c.pos), c.cfg)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		net := wsn.New(c.pos, st.IndexGamma())
		st.SetNetwork(net)
		det, _ := st.Detector().(boundary.PerNode)
		stride := max(1, len(c.pos)/replayNodes)
		var nodes []int
		for i := 0; i < len(c.pos) && len(nodes) < replayNodes; i += stride {
			nodes = append(nodes, i)
		}

		// One untimed pass fixes each node's inputs: its boundary flag,
		// warm-start hint and read radius, its neighbor sites and its
		// region's vertices.
		s := core.NewScratch()
		var vs voronoi.Scratch
		flag := make([]bool, len(nodes))
		hint := make([]float64, len(nodes))
		readRad := make([]float64, len(nodes))
		others := make([][]voronoi.Site, len(nodes))
		vtx := make([][]geom.Point, len(nodes))
		var ids []int
		var d2s []float64
		for k, i := range nodes {
			if det != nil {
				flag[k] = det.BoundaryNode(net, i)
			}
			out := st.StepNode(i, 0, flag[k], nil, s)
			hint[k], readRad[k] = out.InvRad, out.ReadRad
			ids, d2s = net.NeighborsWithinDistBuf(i, readRad[k], ids[:0], d2s[:0])
			for _, j := range ids {
				others[k] = append(others[k], voronoi.Site{ID: j, Pos: net.Position(j)})
			}
			self := voronoi.Site{ID: i, Pos: net.Position(i)}
			refs := voronoi.DominatingRegionBatch(self, others[k], c.cfg.K, reg.Pieces(), &vs)
			vtx[k] = voronoi.VerticesOfRefsInto(nil, &vs.Slab, refs)
			nbrs += float64(len(ids))
			verts += float64(len(vtx[k]))
			regions++
		}

		timeLoop := func(name string, call func(k, i int)) {
			for p := 0; p < replayPasses; p++ {
				t0 := time.Now()
				for k, i := range nodes {
					call(k, i)
				}
				times[name] = append(times[name], float64(time.Since(t0).Nanoseconds())/1e3/float64(len(nodes)))
			}
		}
		timeLoop("core.stepnode_us", func(k, i int) { st.StepNode(i, hint[k], flag[k], nil, s) })
		timeLoop("wsn.gather_us", func(k, i int) { ids, d2s = net.NeighborsWithinDistBuf(i, readRad[k], ids[:0], d2s[:0]) })
		timeLoop("voronoi.region_us", func(k, i int) {
			voronoi.DominatingRegionBatch(voronoi.Site{ID: i, Pos: net.Position(i)}, others[k], c.cfg.K, reg.Pieces(), &vs)
		})
		timeLoop("geom.sec_us", func(k, _ int) { geom.SmallestEnclosingCircle(vtx[k]) })
		timeLoop("wsn.ring_us", func(k, i int) { net.RingQuery(i, readRad[k], c.cfg.RingMode) })
		if det != nil {
			timeLoop("boundary.node_us", func(_, i int) { det.BoundaryNode(net, i) })
		}
	}
	for name, ts := range times {
		m[name] = median(ts)
	}
	m["voronoi.neighbors_per_region"] = ratio(nbrs, regions)
	m["voronoi.vertices_per_region"] = ratio(verts, regions)
	return nil
}
