// Package workflow defines the scientific-workflow specification model: the
// dataflow graphs of modules, typed ports and connections that constitute
// *prospective provenance* — the recipe that, together with inputs and
// parameters, derives a class of data products (Davidson & Freire, SIGMOD'08
// §2.2).
//
// A Workflow is a DAG whose nodes are Modules and whose edges are
// Connections between typed ports. The package provides validation,
// canonical content hashing, JSON and XML serialization, and conversion to
// the generic graph form used by matching, views and analogy.
package workflow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Port is a named, typed input or output of a module. Type is a free-form
// data-type tag (e.g. "vtkStructuredGrid", "table", "image/png"); two ports
// are compatible when types are equal or either side is the wildcard "any".
type Port struct {
	Name string `json:"name" xml:"name,attr"`
	Type string `json:"type" xml:"type,attr"`
}

// Wildcard is the port type compatible with every other type.
const Wildcard = "any"

// Compatible reports whether an output of type out may feed an input of
// type in.
func Compatible(out, in string) bool {
	return out == in || out == Wildcard || in == Wildcard
}

// Module is a computational step in a workflow: a process node in the
// dataflow graph. Type names the underlying operation (and is the key into
// the engine's module registry); Params are the bound parameter values that
// specialize it.
type Module struct {
	ID          string            `json:"id" xml:"id,attr"`
	Name        string            `json:"name" xml:"name,attr"`
	Type        string            `json:"type" xml:"type,attr"`
	Params      map[string]string `json:"params,omitempty" xml:"-"`
	Inputs      []Port            `json:"inputs,omitempty" xml:"inputs>port"`
	Outputs     []Port            `json:"outputs,omitempty" xml:"outputs>port"`
	Annotations map[string]string `json:"annotations,omitempty" xml:"-"`
}

// InputPort returns the named input port, or nil.
func (m *Module) InputPort(name string) *Port {
	for i := range m.Inputs {
		if m.Inputs[i].Name == name {
			return &m.Inputs[i]
		}
	}
	return nil
}

// OutputPort returns the named output port, or nil.
func (m *Module) OutputPort(name string) *Port {
	for i := range m.Outputs {
		if m.Outputs[i].Name == name {
			return &m.Outputs[i]
		}
	}
	return nil
}

// Clone returns a deep copy of the module.
func (m *Module) Clone() *Module {
	cp := *m
	cp.Params = copyMap(m.Params)
	cp.Annotations = copyMap(m.Annotations)
	cp.Inputs = append([]Port(nil), m.Inputs...)
	cp.Outputs = append([]Port(nil), m.Outputs...)
	return &cp
}

func copyMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Connection routes the output port SrcPort of module SrcModule to the input
// port DstPort of module DstModule: a dataflow edge.
type Connection struct {
	SrcModule string `json:"srcModule" xml:"srcModule,attr"`
	SrcPort   string `json:"srcPort" xml:"srcPort,attr"`
	DstModule string `json:"dstModule" xml:"dstModule,attr"`
	DstPort   string `json:"dstPort" xml:"dstPort,attr"`
}

// Key returns a canonical string identity for the connection.
func (c Connection) Key() string {
	return c.SrcModule + "." + c.SrcPort + "->" + c.DstModule + "." + c.DstPort
}

// Workflow is a complete dataflow specification. It is the unit of
// prospective provenance: executing it (internal/engine) yields a run whose
// retrospective provenance references this specification by content hash.
type Workflow struct {
	ID          string            `json:"id" xml:"id,attr"`
	Name        string            `json:"name" xml:"name,attr"`
	Modules     []*Module         `json:"modules" xml:"modules>module"`
	Connections []Connection      `json:"connections" xml:"connections>connection"`
	Annotations map[string]string `json:"annotations,omitempty" xml:"-"`
}

// New returns an empty workflow with the given identity.
func New(id, name string) *Workflow {
	return &Workflow{ID: id, Name: name}
}

// Module returns the module with the given ID, or nil.
func (w *Workflow) Module(id string) *Module {
	for _, m := range w.Modules {
		if m.ID == id {
			return m
		}
	}
	return nil
}

// AddModule appends a module, rejecting duplicate IDs.
func (w *Workflow) AddModule(m *Module) error {
	if m.ID == "" {
		return fmt.Errorf("workflow %s: module ID must be non-empty", w.ID)
	}
	if w.Module(m.ID) != nil {
		return fmt.Errorf("workflow %s: duplicate module %q", w.ID, m.ID)
	}
	w.Modules = append(w.Modules, m)
	return nil
}

// RemoveModule deletes a module and every connection touching it. It reports
// whether the module existed.
func (w *Workflow) RemoveModule(id string) bool {
	idx := -1
	for i, m := range w.Modules {
		if m.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	w.Modules = append(w.Modules[:idx], w.Modules[idx+1:]...)
	kept := w.Connections[:0]
	for _, c := range w.Connections {
		if c.SrcModule != id && c.DstModule != id {
			kept = append(kept, c)
		}
	}
	w.Connections = kept
	return true
}

// Connect adds a connection after checking that both endpoints and ports
// exist, the port types are compatible, and the destination port is not
// already fed (dataflow inputs are single-assignment).
func (w *Workflow) Connect(srcModule, srcPort, dstModule, dstPort string) error {
	src := w.Module(srcModule)
	if src == nil {
		return fmt.Errorf("workflow %s: source module %q not found", w.ID, srcModule)
	}
	dst := w.Module(dstModule)
	if dst == nil {
		return fmt.Errorf("workflow %s: destination module %q not found", w.ID, dstModule)
	}
	op := src.OutputPort(srcPort)
	if op == nil {
		return fmt.Errorf("workflow %s: module %q has no output port %q", w.ID, srcModule, srcPort)
	}
	ip := dst.InputPort(dstPort)
	if ip == nil {
		return fmt.Errorf("workflow %s: module %q has no input port %q", w.ID, dstModule, dstPort)
	}
	if !Compatible(op.Type, ip.Type) {
		return fmt.Errorf("workflow %s: type mismatch %s.%s(%s) -> %s.%s(%s)",
			w.ID, srcModule, srcPort, op.Type, dstModule, dstPort, ip.Type)
	}
	for _, c := range w.Connections {
		if c.DstModule == dstModule && c.DstPort == dstPort {
			return fmt.Errorf("workflow %s: input %s.%s already connected", w.ID, dstModule, dstPort)
		}
	}
	w.Connections = append(w.Connections, Connection{
		SrcModule: srcModule, SrcPort: srcPort,
		DstModule: dstModule, DstPort: dstPort,
	})
	return nil
}

// Disconnect removes a connection by its full endpoint description. It
// reports whether a connection was removed.
func (w *Workflow) Disconnect(c Connection) bool {
	for i, have := range w.Connections {
		if have == c {
			w.Connections = append(w.Connections[:i], w.Connections[i+1:]...)
			return true
		}
	}
	return false
}

// Validate checks structural well-formedness: modules exist for every
// connection endpoint, ports exist with compatible types, no input port is
// fed twice, and the module graph is acyclic.
func (w *Workflow) Validate() error {
	seen := map[string]bool{}
	for _, m := range w.Modules {
		if m == nil {
			return fmt.Errorf("workflow %s: null module", w.ID)
		}
		if m.ID == "" {
			return fmt.Errorf("workflow %s: module with empty ID", w.ID)
		}
		if seen[m.ID] {
			return fmt.Errorf("workflow %s: duplicate module %q", w.ID, m.ID)
		}
		seen[m.ID] = true
		ports := map[string]bool{}
		for _, p := range m.Inputs {
			if ports["in/"+p.Name] {
				return fmt.Errorf("workflow %s: module %q duplicate input port %q", w.ID, m.ID, p.Name)
			}
			ports["in/"+p.Name] = true
		}
		for _, p := range m.Outputs {
			if ports["out/"+p.Name] {
				return fmt.Errorf("workflow %s: module %q duplicate output port %q", w.ID, m.ID, p.Name)
			}
			ports["out/"+p.Name] = true
		}
	}
	fed := map[string]bool{}
	for _, c := range w.Connections {
		src := w.Module(c.SrcModule)
		dst := w.Module(c.DstModule)
		if src == nil || dst == nil {
			return fmt.Errorf("workflow %s: dangling connection %s", w.ID, c.Key())
		}
		op := src.OutputPort(c.SrcPort)
		ip := dst.InputPort(c.DstPort)
		if op == nil || ip == nil {
			return fmt.Errorf("workflow %s: connection %s references missing port", w.ID, c.Key())
		}
		if !Compatible(op.Type, ip.Type) {
			return fmt.Errorf("workflow %s: connection %s type mismatch (%s vs %s)", w.ID, c.Key(), op.Type, ip.Type)
		}
		k := c.DstModule + "." + c.DstPort
		if fed[k] {
			return fmt.Errorf("workflow %s: input %s fed by multiple connections", w.ID, k)
		}
		fed[k] = true
	}
	if !w.Graph().IsDAG() {
		return fmt.Errorf("workflow %s: module graph is cyclic", w.ID)
	}
	return nil
}

// Graph converts the workflow into a generic directed graph: one node per
// module (Kind = module type) and one edge per connection (Label =
// "srcPort->dstPort").
func (w *Workflow) Graph() *graph.Graph {
	g := graph.New()
	for _, m := range w.Modules {
		_ = g.AddNode(graph.Node{
			ID:    graph.NodeID(m.ID),
			Label: m.Name,
			Kind:  m.Type,
		})
	}
	for _, c := range w.Connections {
		_ = g.AddEdge(graph.Edge{
			Src:   graph.NodeID(c.SrcModule),
			Dst:   graph.NodeID(c.DstModule),
			Label: c.SrcPort + "->" + c.DstPort,
		})
	}
	return g
}

// TopoOrder returns module IDs in deterministic topological order.
func (w *Workflow) TopoOrder() ([]string, error) {
	order, err := w.Graph().TopoSort()
	if err != nil {
		return nil, fmt.Errorf("workflow %s: %w", w.ID, err)
	}
	out := make([]string, len(order))
	for i, id := range order {
		out[i] = string(id)
	}
	return out, nil
}

// Upstream returns the IDs of all modules the given module transitively
// depends on, sorted.
func (w *Workflow) Upstream(moduleID string) []string {
	return sortedIDs(w.Graph().Ancestors(graph.NodeID(moduleID)))
}

// Downstream returns the IDs of all modules transitively depending on the
// given module, sorted.
func (w *Workflow) Downstream(moduleID string) []string {
	return sortedIDs(w.Graph().Reachable(graph.NodeID(moduleID)))
}

func sortedIDs(set map[graph.NodeID]bool) []string {
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, string(id))
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the workflow.
func (w *Workflow) Clone() *Workflow {
	cp := &Workflow{
		ID:          w.ID,
		Name:        w.Name,
		Connections: append([]Connection(nil), w.Connections...),
		Annotations: copyMap(w.Annotations),
	}
	cp.Modules = make([]*Module, len(w.Modules))
	for i, m := range w.Modules {
		cp.Modules[i] = m.Clone()
	}
	return cp
}

// Annotate attaches a user-defined annotation to the workflow itself.
// Annotations are the user-defined provenance of §2.2: information that
// cannot be captured automatically.
func (w *Workflow) Annotate(key, value string) {
	if w.Annotations == nil {
		w.Annotations = map[string]string{}
	}
	w.Annotations[key] = value
}

// AnnotateModule attaches an annotation to a module. It returns an error if
// the module does not exist.
func (w *Workflow) AnnotateModule(moduleID, key, value string) error {
	m := w.Module(moduleID)
	if m == nil {
		return fmt.Errorf("workflow %s: module %q not found", w.ID, moduleID)
	}
	if m.Annotations == nil {
		m.Annotations = map[string]string{}
	}
	m.Annotations[key] = value
	return nil
}

// ContentHash returns a hex SHA-256 digest of the canonical form of the
// workflow structure (modules, ports, params, connections — not annotations
// or display names). Two workflows with identical computational meaning hash
// identically; the hash is the workflow's identity in retrospective
// provenance records.
func (w *Workflow) ContentHash() string {
	var b strings.Builder
	mods := make([]*Module, len(w.Modules))
	copy(mods, w.Modules)
	sort.Slice(mods, func(i, j int) bool { return mods[i].ID < mods[j].ID })
	for _, m := range mods {
		fmt.Fprintf(&b, "module %s type=%s\n", m.ID, m.Type)
		for _, k := range sortedKeys(m.Params) {
			fmt.Fprintf(&b, "  param %s=%s\n", k, m.Params[k])
		}
		for _, p := range m.Inputs {
			fmt.Fprintf(&b, "  in %s:%s\n", p.Name, p.Type)
		}
		for _, p := range m.Outputs {
			fmt.Fprintf(&b, "  out %s:%s\n", p.Name, p.Type)
		}
	}
	conns := make([]Connection, len(w.Connections))
	copy(conns, w.Connections)
	sort.Slice(conns, func(i, j int) bool { return conns[i].Key() < conns[j].Key() })
	for _, c := range conns {
		fmt.Fprintf(&b, "conn %s\n", c.Key())
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SetParam sets a parameter on a module, creating the map if needed.
func (w *Workflow) SetParam(moduleID, key, value string) error {
	m := w.Module(moduleID)
	if m == nil {
		return fmt.Errorf("workflow %s: module %q not found", w.ID, moduleID)
	}
	if m.Params == nil {
		m.Params = map[string]string{}
	}
	m.Params[key] = value
	return nil
}

// Stats summarizes the prospective provenance of a workflow: the numbers
// reported in experiment E1.
type Stats struct {
	Modules     int
	Connections int
	Params      int
	Annotations int
	Depth       int
}

// Stat computes summary statistics.
func (w *Workflow) Stat() Stats {
	s := Stats{Modules: len(w.Modules), Connections: len(w.Connections), Annotations: len(w.Annotations)}
	for _, m := range w.Modules {
		s.Params += len(m.Params)
		s.Annotations += len(m.Annotations)
	}
	if layers, err := w.Graph().Layers(); err == nil {
		s.Depth = len(layers)
	}
	return s
}
