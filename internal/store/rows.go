package store

import "repro/internal/provenance"

// RowSchemas is the relational view of a run log: PQL's six virtual
// tables, the columns of RelStore's tables, and the order of the fields of
// the row types below.
var RowSchemas = map[string][]string{
	"runs":        {"id", "workflow", "hash", "agent", "status"},
	"executions":  {"id", "run", "module", "moduleType", "status", "wallNanos"},
	"artifacts":   {"id", "run", "type", "contentHash", "size"},
	"uses":        {"exec", "artifact", "port"},
	"gens":        {"exec", "artifact", "port"},
	"annotations": {"subject", "key", "value", "author"},
}

// RunRows is one run log flattened into the tables of RowSchemas. Uses and
// gens are one edge list in event order, so each table keeps its own order
// and a consumer that wants both (Datalog's facts) sees them interleaved
// as the events were.
type RunRows struct {
	Run         RunRow
	Executions  []ExecRow
	Artifacts   []ArtifactRow
	Edges       []EdgeRow
	Annotations []AnnotationRow
}

// RunRow is the run's row of the runs table.
type RunRow struct{ ID, Workflow, Hash, Agent, Status string }

// ExecRow is a row of the executions table. Run is the execution's own
// run field, which a record need not set to the run that holds it.
type ExecRow struct {
	ID, Run, Module, ModuleType, Status string
	WallNanos                           int64
}

// ArtifactRow is a row of the artifacts table.
type ArtifactRow struct {
	ID, Run, Type, ContentHash string
	Size                       int64
}

// EdgeRow is a row of the gens table when Gen is set, of uses otherwise.
type EdgeRow struct {
	Gen                  bool
	Exec, Artifact, Port string
}

// AnnotationRow is a row of the annotations table.
type AnnotationRow struct{ Subject, Key, Value, Author string }

// Rows is the one flattening of a run log into the relational view: PQL's
// leaf scans, RelStore's tables and Datalog's extensional facts are all
// read from it.
func Rows(l *provenance.RunLog) *RunRows {
	r := new(RunRows)
	r.fill(l)
	return r
}

// fill replaces r's rows with l's, reusing r's slices.
func (r *RunRows) fill(l *provenance.RunLog) {
	r.Run = RunRow{l.Run.ID, l.Run.WorkflowID, l.Run.WorkflowHash, l.Run.Agent, string(l.Run.Status)}
	r.Executions = r.Executions[:0]
	for _, e := range l.Executions {
		r.Executions = append(r.Executions, ExecRow{e.ID, e.RunID, e.ModuleID, e.ModuleType, string(e.Status), e.WallNanos})
	}
	r.Artifacts = r.Artifacts[:0]
	for _, a := range l.Artifacts {
		r.Artifacts = append(r.Artifacts, ArtifactRow{a.ID, a.RunID, a.Type, a.ContentHash, a.Size})
	}
	r.Edges = r.Edges[:0]
	for _, ev := range l.Events {
		if ev.Kind == provenance.EventArtifactUsed || ev.Kind == provenance.EventArtifactGen {
			r.Edges = append(r.Edges, EdgeRow{ev.Kind == provenance.EventArtifactGen, ev.ExecutionID, ev.ArtifactID, ev.Port})
		}
	}
	r.Annotations = r.Annotations[:0]
	for _, an := range l.Annotations {
		r.Annotations = append(r.Annotations, AnnotationRow{an.Subject, an.Key, an.Value, an.Author})
	}
}

// CopyTo makes dst a copy of r that shares none of r's slices, reusing
// dst's own: what a ScanRows callback keeps after returning (the sharded
// router's merge holds shard rows this way, recycling its copies).
func (r *RunRows) CopyTo(dst *RunRows) {
	dst.Run = r.Run
	dst.Executions = append(dst.Executions[:0], r.Executions...)
	dst.Artifacts = append(dst.Artifacts[:0], r.Artifacts...)
	dst.Edges = append(dst.Edges[:0], r.Edges...)
	dst.Annotations = append(dst.Annotations[:0], r.Annotations...)
}
