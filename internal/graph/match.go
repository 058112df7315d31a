package graph

// MatchOptions controls subgraph matching.
type MatchOptions struct {
	// NodeMatches decides whether a pattern node may map to a target node.
	// nil means kinds must be equal.
	NodeMatches func(pattern, target *Node) bool
	// EdgeLabelsMustMatch requires edge labels to be equal.
	EdgeLabelsMustMatch bool
	// Limit bounds the number of embeddings returned (<= 0: unbounded).
	Limit int
}

// Match finds embeddings of pattern into target: injective node mappings
// under which every pattern edge has a corresponding target edge. It is a
// backtracking (VF2-style) matcher; patterns are expected to be small
// workflow fragments.
func Match(pattern, target *Graph, opt MatchOptions) []map[NodeID]NodeID {
	nodeOK := opt.NodeMatches
	if nodeOK == nil {
		nodeOK = func(p, t *Node) bool { return p.Kind == t.Kind }
	}
	pids := pattern.NodeIDs()
	if len(pids) == 0 {
		return nil
	}
	// Order pattern nodes so each (after the first) is adjacent to an
	// already-placed node when possible: cuts the search space hard.
	pids = connectivityOrder(pattern, pids)

	// Candidate lists per pattern node.
	cands := make(map[NodeID][]NodeID, len(pids))
	for _, pid := range pids {
		pn := pattern.Node(pid)
		var list []NodeID
		for _, tn := range target.Nodes() {
			if nodeOK(pn, tn) &&
				target.InDegree(tn.ID) >= pattern.InDegree(pid) &&
				target.OutDegree(tn.ID) >= pattern.OutDegree(pid) {
				list = append(list, tn.ID)
			}
		}
		if len(list) == 0 {
			return nil
		}
		cands[pid] = list
	}

	var results []map[NodeID]NodeID
	mapping := make(map[NodeID]NodeID, len(pids))
	used := make(map[NodeID]bool)

	edgeOK := func(psrc, pdst NodeID) bool {
		tsrc, okS := mapping[psrc]
		tdst, okD := mapping[pdst]
		if !okS || !okD {
			return true // endpoint not yet placed; defer the check
		}
		if !opt.EdgeLabelsMustMatch {
			return target.HasEdge(tsrc, tdst)
		}
		for _, pe := range pattern.Out(psrc) {
			if pe.Dst != pdst {
				continue
			}
			found := false
			for _, te := range target.Out(tsrc) {
				if te.Dst == tdst && te.Label == pe.Label {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}

	var place func(i int) bool
	place = func(i int) bool {
		if i == len(pids) {
			cp := make(map[NodeID]NodeID, len(mapping))
			for k, v := range mapping {
				cp[k] = v
			}
			results = append(results, cp)
			return opt.Limit > 0 && len(results) >= opt.Limit
		}
		pid := pids[i]
		for _, tid := range cands[pid] {
			if used[tid] {
				continue
			}
			mapping[pid] = tid
			used[tid] = true
			consistent := true
			for _, e := range pattern.Out(pid) {
				if !edgeOK(pid, e.Dst) {
					consistent = false
					break
				}
			}
			if consistent {
				for _, e := range pattern.In(pid) {
					if !edgeOK(e.Src, pid) {
						consistent = false
						break
					}
				}
			}
			if consistent && place(i+1) {
				return true
			}
			delete(mapping, pid)
			delete(used, tid)
		}
		return false
	}
	place(0)
	return results
}

func connectivityOrder(g *Graph, ids []NodeID) []NodeID {
	placed := map[NodeID]bool{}
	var order []NodeID
	remaining := append([]NodeID(nil), ids...)
	for len(remaining) > 0 {
		best := -1
		bestAdj := -1
		for i, id := range remaining {
			adj := 0
			for _, n := range g.Successors(id) {
				if placed[n] {
					adj++
				}
			}
			for _, n := range g.Predecessors(id) {
				if placed[n] {
					adj++
				}
			}
			// Prefer adjacency to placed nodes, then higher degree.
			deg := g.InDegree(id) + g.OutDegree(id)
			score := adj*1000 + deg
			if score > bestAdj {
				bestAdj = score
				best = i
			}
		}
		id := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		placed[id] = true
		order = append(order, id)
	}
	return order
}

// Similarity computes a structural similarity in [0,1] between two graphs
// based on shared node kinds and shared (srcKind, label, dstKind) edge
// signatures (Jaccard over multisets). It is the scoring primitive for
// analogy-based workflow refinement.
func Similarity(a, b *Graph) float64 {
	na := kindCounts(a)
	nb := kindCounts(b)
	ea := edgeSignatures(a)
	eb := edgeSignatures(b)
	nodeSim := multisetJaccard(na, nb)
	edgeSim := multisetJaccard(ea, eb)
	if a.NumEdges() == 0 && b.NumEdges() == 0 {
		return nodeSim
	}
	return 0.5*nodeSim + 0.5*edgeSim
}

func kindCounts(g *Graph) map[string]int {
	m := map[string]int{}
	for _, n := range g.Nodes() {
		m[n.Kind]++
	}
	return m
}

func edgeSignatures(g *Graph) map[string]int {
	m := map[string]int{}
	for _, e := range g.Edges() {
		src, dst := g.Node(e.Src), g.Node(e.Dst)
		m[src.Kind+"|"+e.Label+"|"+dst.Kind]++
	}
	return m
}

func multisetJaccard(a, b map[string]int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	inter, union := 0, 0
	for k := range keys {
		x, y := a[k], b[k]
		if x < y {
			inter += x
			union += y
		} else {
			inter += y
			union += x
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
