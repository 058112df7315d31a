// Package views implements user views over workflows and their provenance,
// the paper's answer to provenance overload (§2.4 cites Biton et al.'s
// ZOOM [5]): a scientist declares which modules are relevant, the system
// groups the rest into composite modules, and provenance queries are
// answered at the granularity of the view — fewer nodes, same causal
// story.
//
// A view is a partition of a workflow's modules into named groups. It is
// *sound* when the quotient dataflow graph is acyclic, so the abstracted
// provenance never shows a dependency cycle that the concrete run did not
// have.
package views

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/workflow"
)

// View is a partition of workflow modules into composite groups. Modules
// absent from every group are implicit singletons.
type View struct {
	Name   string
	groups map[string][]string // group name -> module IDs
	byMod  map[string]string   // module ID -> group name
}

// NewView returns an empty view.
func NewView(name string) *View {
	return &View{Name: name, groups: map[string][]string{}, byMod: map[string]string{}}
}

// Group assigns modules to a named composite. A module may belong to one
// group only.
func (v *View) Group(name string, moduleIDs ...string) error {
	if name == "" {
		return fmt.Errorf("views: group name must be non-empty")
	}
	for _, id := range moduleIDs {
		if have, ok := v.byMod[id]; ok && have != name {
			return fmt.Errorf("views: module %q already in group %q", id, have)
		}
	}
	for _, id := range moduleIDs {
		if v.byMod[id] != name {
			v.byMod[id] = name
			v.groups[name] = append(v.groups[name], id)
		}
	}
	return nil
}

// GroupOf returns the group a module maps to; ungrouped modules map to
// themselves (singleton composite).
func (v *View) GroupOf(moduleID string) string {
	if g, ok := v.byMod[moduleID]; ok {
		return g
	}
	return moduleID
}

// Members returns the module IDs of a group, sorted.
func (v *View) Members(group string) []string {
	out := append([]string(nil), v.groups[group]...)
	sort.Strings(out)
	return out
}

// AbstractWorkflow is the quotient of a workflow under a view: one node per
// composite, one edge per cross-group connection.
type AbstractWorkflow struct {
	View  *View
	Graph *graph.Graph
}

// Apply computes the abstract workflow and checks soundness: the quotient
// must be a DAG. A grouping that lumps a producer and a consumer of some
// intermediate module into one composite while leaving that module outside
// creates a cycle and is rejected.
func (v *View) Apply(wf *workflow.Workflow) (*AbstractWorkflow, error) {
	for _, members := range v.groups {
		for _, id := range members {
			if wf.Module(id) == nil {
				return nil, fmt.Errorf("views: view %q groups unknown module %q", v.Name, id)
			}
		}
	}
	g := graph.New()
	for _, m := range wf.Modules {
		grp := v.GroupOf(m.ID)
		g.EnsureNode(graph.Node{ID: graph.NodeID(grp), Label: grp, Kind: "composite"})
	}
	for _, c := range wf.Connections {
		src := v.GroupOf(c.SrcModule)
		dst := v.GroupOf(c.DstModule)
		if src == dst {
			continue // internal edge, hidden by the view
		}
		if !g.HasEdge(graph.NodeID(src), graph.NodeID(dst)) {
			if err := g.AddEdge(graph.Edge{Src: graph.NodeID(src), Dst: graph.NodeID(dst), Label: "flow"}); err != nil {
				return nil, err
			}
		}
	}
	if !g.IsDAG() {
		return nil, fmt.Errorf("views: view %q is unsound: quotient graph is cyclic", v.Name)
	}
	return &AbstractWorkflow{View: v, Graph: g}, nil
}

// AbstractProvenance is a run's causal graph at view granularity: composite
// executions plus only the artifacts that cross composite boundaries.
type AbstractProvenance struct {
	View *View
	// Graph nodes: composite executions (Kind "execution") and boundary
	// artifacts (Kind "artifact").
	Graph *graph.Graph
	// HiddenArtifacts counts artifacts internal to some composite.
	HiddenArtifacts int
}

// Abstract collapses a run log to view granularity. Executions map to their
// module's group; an artifact is hidden when its generator and all its
// consumers live in the same group.
func (v *View) Abstract(l *provenance.RunLog) (*AbstractProvenance, error) {
	cg, err := provenance.BuildCausalGraph(l)
	if err != nil {
		return nil, err
	}
	_ = cg
	// One pass over the events builds the whole adjacency, instead of a
	// per-artifact scan of the event list.
	gen := map[string]string{}
	cons := map[string][]string{}
	for _, ev := range l.Events {
		switch ev.Kind {
		case provenance.EventArtifactGen:
			gen[ev.ArtifactID] = ev.ExecutionID
		case provenance.EventArtifactUsed:
			cons[ev.ArtifactID] = append(cons[ev.ArtifactID], ev.ExecutionID)
		}
	}
	return v.abstract(l, gen, cons)
}

// AbstractStored collapses a stored run to view granularity, reading the
// causal adjacency through the store's batch traversal API: two Expand
// calls (generators and consumers of every artifact, whole frontiers at
// once) replace per-artifact navigation, so the abstraction works at batch
// cost on any backend — including FileStore, where it touches disk only
// for the run log itself.
func (v *View) AbstractStored(s store.Store, runID string) (*AbstractProvenance, error) {
	l, err := s.RunLog(runID)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(l.Artifacts))
	for _, a := range l.Artifacts {
		ids = append(ids, a.ID)
	}
	up, err := s.Expand(ids, store.Up)
	if err != nil {
		return nil, err
	}
	down, err := s.Expand(ids, store.Down)
	if err != nil {
		return nil, err
	}
	gen := make(map[string]string, len(up))
	for id, parents := range up {
		if len(parents) > 0 {
			gen[id] = parents[0]
		}
	}
	cons := make(map[string][]string, len(down))
	for id, consumers := range down {
		cons[id] = consumers
	}
	return v.abstract(l, gen, cons)
}

// abstract builds the quotient provenance graph from precomputed artifact
// adjacency: gen maps artifact -> generating execution, cons maps
// artifact -> consuming executions.
func (v *View) abstract(l *provenance.RunLog, gen map[string]string, cons map[string][]string) (*AbstractProvenance, error) {
	g := graph.New()
	execGroup := map[string]string{} // execution ID -> composite node ID
	for _, e := range l.Executions {
		grp := "view:" + v.GroupOf(e.ModuleID)
		execGroup[e.ID] = grp
		g.EnsureNode(graph.Node{ID: graph.NodeID(grp), Label: grp, Kind: string(provenance.KindExecution)})
	}
	hidden := 0
	for _, a := range l.Artifacts {
		// Keep only adjacency within this run: store-wide maps (from
		// AbstractStored's Expand) may mention executions of other runs.
		genExec, hasGen := gen[a.ID]
		if hasGen {
			_, hasGen = execGroup[genExec]
		}
		consumers := cons[a.ID][:0:0]
		for _, c := range cons[a.ID] {
			if _, ok := execGroup[c]; ok {
				consumers = append(consumers, c)
			}
		}
		internal := hasGen && len(consumers) > 0
		if internal {
			for _, c := range consumers {
				if execGroup[c] != execGroup[genExec] {
					internal = false
					break
				}
			}
		}
		if internal {
			hidden++
			continue
		}
		if err := g.AddNode(graph.Node{ID: graph.NodeID(a.ID), Label: a.Type, Kind: string(provenance.KindArtifact)}); err != nil {
			return nil, err
		}
		if hasGen {
			src := graph.NodeID(execGroup[genExec])
			if !g.HasEdge(src, graph.NodeID(a.ID)) {
				if err := g.AddEdge(graph.Edge{Src: src, Dst: graph.NodeID(a.ID), Label: provenance.EdgeGenerated}); err != nil {
					return nil, err
				}
			}
		}
		for _, c := range consumers {
			dst := graph.NodeID(execGroup[c])
			if !g.HasEdge(graph.NodeID(a.ID), dst) {
				if err := g.AddEdge(graph.Edge{Src: graph.NodeID(a.ID), Dst: dst, Label: provenance.EdgeUsed}); err != nil {
					return nil, err
				}
			}
		}
	}
	if !g.IsDAG() {
		return nil, fmt.Errorf("views: view %q yields cyclic abstract provenance", v.Name)
	}
	return &AbstractProvenance{View: v, Graph: g, HiddenArtifacts: hidden}, nil
}

// Reduction quantifies how much a view shrinks the visible provenance: the
// metric of experiment E5.
type Reduction struct {
	ConcreteNodes int
	AbstractNodes int
	Hidden        int
	Factor        float64
}

// Reduction computes the node-count reduction of a view over a run.
func (v *View) Reduction(l *provenance.RunLog) (*Reduction, error) {
	ap, err := v.Abstract(l)
	if err != nil {
		return nil, err
	}
	concrete := len(l.Executions) + len(l.Artifacts)
	abstract := ap.Graph.NumNodes()
	r := &Reduction{ConcreteNodes: concrete, AbstractNodes: abstract, Hidden: ap.HiddenArtifacts}
	if abstract > 0 {
		r.Factor = float64(concrete) / float64(abstract)
	}
	return r, nil
}

// AutoView builds a sound view from a relevance predicate (ZOOM's user
// input: which module types matter to this scientist). Irrelevant modules
// are greedily merged into composites along dataflow chains; a merge that
// would make the quotient cyclic is skipped.
func AutoView(wf *workflow.Workflow, relevant func(m *workflow.Module) bool) (*View, error) {
	v := NewView("auto")
	order, err := wf.TopoOrder()
	if err != nil {
		return nil, err
	}
	// Union-find over irrelevant modules.
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	for _, id := range order {
		if !relevant(wf.Module(id)) {
			parent[id] = id
		}
	}
	tryMerge := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		parent[rb] = ra
		// Soundness check: undo if cyclic.
		trial := NewView("trial")
		groups := map[string][]string{}
		for id := range parent {
			root := find(id)
			groups[root] = append(groups[root], id)
		}
		for root, members := range groups {
			if err := trial.Group("g:"+root, members...); err != nil {
				parent[rb] = rb
				return
			}
		}
		if _, err := trial.Apply(wf); err != nil {
			parent[rb] = rb
		}
	}
	for _, c := range wf.Connections {
		_, aIrr := parent[c.SrcModule]
		_, bIrr := parent[c.DstModule]
		if aIrr && bIrr {
			tryMerge(c.SrcModule, c.DstModule)
		}
	}
	groups := map[string][]string{}
	for id := range parent {
		root := find(id)
		groups[root] = append(groups[root], id)
	}
	roots := make([]string, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for i, root := range roots {
		if err := v.Group(fmt.Sprintf("composite-%02d", i), groups[root]...); err != nil {
			return nil, err
		}
	}
	if _, err := v.Apply(wf); err != nil {
		return nil, err
	}
	return v, nil
}
