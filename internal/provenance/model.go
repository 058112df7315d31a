// Package provenance implements the core of the paper: capture, modeling and
// querying of provenance for scientific workflows (Davidson & Freire,
// SIGMOD'08 §2.2).
//
// Two forms of provenance are represented:
//
//   - Prospective provenance is the workflow specification itself (package
//     workflow); runs reference it by content hash.
//   - Retrospective provenance is the detailed log of an execution: which
//     module executions ran, which artifacts they used and generated, in what
//     environment, plus user-defined annotations.
//
// From a run log the package derives the causal graph — the dependency
// relationships among data products and the processes that generated them —
// and answers the canonical questions the paper opens with: who created this
// data product and with what process, were two products derived from the
// same raw data, and which results must be invalidated when an input (the
// defective CT scanner of §2.2) is recalled.
package provenance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

// EntityKind distinguishes node types in provenance records.
type EntityKind string

// Entity kinds.
const (
	KindArtifact  EntityKind = "artifact"
	KindExecution EntityKind = "execution"
	KindRun       EntityKind = "run"
	KindAgent     EntityKind = "agent"
)

// EventKind enumerates the retrospective-provenance event types a capture
// mechanism emits.
type EventKind string

// Event kinds, in the order a typical module execution emits them.
const (
	EventRunStarted       EventKind = "runStarted"
	EventRunEnded         EventKind = "runEnded"
	EventExecutionStarted EventKind = "executionStarted"
	EventExecutionEnded   EventKind = "executionEnded"
	EventArtifactUsed     EventKind = "artifactUsed"
	EventArtifactGen      EventKind = "artifactGenerated"
	EventAnnotation       EventKind = "annotation"
)

// ExecStatus is the terminal status of a module execution or run.
type ExecStatus string

// Execution statuses.
const (
	StatusOK      ExecStatus = "ok"
	StatusFailed  ExecStatus = "failed"
	StatusSkipped ExecStatus = "skipped"
	StatusCached  ExecStatus = "cached"
)

// Artifact is a data product: an input, intermediate or final result of a
// run. ContentHash identifies equal contents across runs; Preview holds a
// short human-readable rendering of the value.
type Artifact struct {
	ID          string            `json:"id"`
	Type        string            `json:"type"`
	ContentHash string            `json:"contentHash"`
	Size        int64             `json:"size"`
	Preview     string            `json:"preview,omitempty"`
	RunID       string            `json:"runId"`
	Annotations map[string]string `json:"annotations,omitempty"`
}

// Execution is one module execution inside a run (a "process" in the
// paper's terms; OPM's Process). Start/End are logical timestamps (event
// sequence numbers) so ordering is deterministic and machine-independent;
// WallNanos records simulated or measured duration for performance queries.
type Execution struct {
	ID         string            `json:"id"`
	RunID      string            `json:"runId"`
	ModuleID   string            `json:"moduleId"`
	ModuleType string            `json:"moduleType"`
	Params     map[string]string `json:"params,omitempty"`
	Start      uint64            `json:"start"`
	End        uint64            `json:"end"`
	WallNanos  int64             `json:"wallNanos"`
	Status     ExecStatus        `json:"status"`
	Error      string            `json:"error,omitempty"`
	Machine    string            `json:"machine,omitempty"`
}

// Run is one execution of a workflow: the unit of retrospective provenance.
// WorkflowHash ties the run to the exact prospective provenance (workflow
// content hash) it executed; Environment captures the execution context the
// paper requires retrospective provenance to include.
type Run struct {
	ID           string            `json:"id"`
	WorkflowID   string            `json:"workflowId"`
	WorkflowHash string            `json:"workflowHash"`
	Agent        string            `json:"agent"`
	Start        uint64            `json:"start"`
	End          uint64            `json:"end"`
	Status       ExecStatus        `json:"status"`
	Environment  map[string]string `json:"environment,omitempty"`
	Annotations  map[string]string `json:"annotations,omitempty"`
}

// Event is one record in the retrospective provenance log. The sequence
// number is a per-run logical clock; the pair (RunID, Seq) is unique.
type Event struct {
	Seq         uint64    `json:"seq"`
	RunID       string    `json:"runId"`
	Kind        EventKind `json:"kind"`
	ExecutionID string    `json:"executionId,omitempty"`
	ArtifactID  string    `json:"artifactId,omitempty"`
	Port        string    `json:"port,omitempty"`
	Subject     string    `json:"subject,omitempty"` // annotation target entity ID
	Key         string    `json:"key,omitempty"`
	Value       string    `json:"value,omitempty"`
}

// Annotation is user-defined provenance attached to any entity (module,
// artifact, execution, run) at any granularity — the yellow boxes of
// Figure 1.
type Annotation struct {
	Subject string `json:"subject"`
	Kind    EntityKind
	Key     string `json:"key"`
	Value   string `json:"value"`
	Author  string `json:"author,omitempty"`
	Seq     uint64 `json:"seq"`
}

// RunLog is the complete retrospective provenance of one run: the run
// header, every execution, every artifact, the raw event stream, and all
// annotations. It is what a Recorder produces and what stores persist.
type RunLog struct {
	Run         Run          `json:"run"`
	Executions  []*Execution `json:"executions"`
	Artifacts   []*Artifact  `json:"artifacts"`
	Events      []Event      `json:"events"`
	Annotations []Annotation `json:"annotations"`
}

// Execution returns the execution with the given ID, or nil.
func (l *RunLog) Execution(id string) *Execution {
	for _, e := range l.Executions {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// Artifact returns the artifact with the given ID, or nil.
func (l *RunLog) Artifact(id string) *Artifact {
	for _, a := range l.Artifacts {
		if a.ID == id {
			return a
		}
	}
	return nil
}

// ExecutionForModule returns the first execution of the given module ID, or
// nil. Module executions are unique per run in the dataflow model.
func (l *RunLog) ExecutionForModule(moduleID string) *Execution {
	for _, e := range l.Executions {
		if e.ModuleID == moduleID {
			return e
		}
	}
	return nil
}

// ArtifactsGeneratedBy returns the artifacts generated by an execution,
// sorted by ID.
func (l *RunLog) ArtifactsGeneratedBy(execID string) []*Artifact {
	var ids []string
	for _, ev := range l.Events {
		if ev.Kind == EventArtifactGen && ev.ExecutionID == execID {
			ids = append(ids, ev.ArtifactID)
		}
	}
	sort.Strings(ids)
	out := make([]*Artifact, 0, len(ids))
	for _, id := range ids {
		if a := l.Artifact(id); a != nil {
			out = append(out, a)
		}
	}
	return out
}

// ArtifactsUsedBy returns the artifacts used by an execution, sorted by ID.
func (l *RunLog) ArtifactsUsedBy(execID string) []*Artifact {
	var ids []string
	for _, ev := range l.Events {
		if ev.Kind == EventArtifactUsed && ev.ExecutionID == execID {
			ids = append(ids, ev.ArtifactID)
		}
	}
	sort.Strings(ids)
	out := make([]*Artifact, 0, len(ids))
	for _, id := range ids {
		if a := l.Artifact(id); a != nil {
			out = append(out, a)
		}
	}
	return out
}

// GeneratorOf returns the execution that generated the artifact, or nil.
// In the dataflow model every artifact has at most one generator.
func (l *RunLog) GeneratorOf(artifactID string) *Execution {
	for _, ev := range l.Events {
		if ev.Kind == EventArtifactGen && ev.ArtifactID == artifactID {
			return l.Execution(ev.ExecutionID)
		}
	}
	return nil
}

// ConsumersOf returns the executions that used the artifact, sorted by ID.
func (l *RunLog) ConsumersOf(artifactID string) []*Execution {
	var ids []string
	seen := map[string]bool{}
	for _, ev := range l.Events {
		if ev.Kind == EventArtifactUsed && ev.ArtifactID == artifactID && !seen[ev.ExecutionID] {
			seen[ev.ExecutionID] = true
			ids = append(ids, ev.ExecutionID)
		}
	}
	sort.Strings(ids)
	out := make([]*Execution, 0, len(ids))
	for _, id := range ids {
		if e := l.Execution(id); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// AnnotationsFor returns the annotations attached to the given subject.
func (l *RunLog) AnnotationsFor(subject string) []Annotation {
	var out []Annotation
	for _, a := range l.Annotations {
		if a.Subject == subject {
			out = append(out, a)
		}
	}
	return out
}

// Validate checks internal consistency of the log: the run has an ID,
// events reference known executions/artifacts, each artifact has at most
// one generator, and execution intervals nest within the run.
func (l *RunLog) Validate() error {
	if l.Run.ID == "" {
		// Stores key and recover records by run ID: a log without one
		// could be accepted but not read back.
		return fmt.Errorf("provenance: run log has an empty run ID")
	}
	execs := map[string]bool{}
	for _, e := range l.Executions {
		if execs[e.ID] {
			return fmt.Errorf("provenance: run %s duplicate execution %q", l.Run.ID, e.ID)
		}
		execs[e.ID] = true
		if e.End < e.Start {
			return fmt.Errorf("provenance: execution %q ends before it starts", e.ID)
		}
	}
	arts := map[string]bool{}
	for _, a := range l.Artifacts {
		if arts[a.ID] {
			return fmt.Errorf("provenance: run %s duplicate artifact %q", l.Run.ID, a.ID)
		}
		arts[a.ID] = true
	}
	gen := map[string]string{}
	var lastSeq uint64
	for i, ev := range l.Events {
		if i > 0 && ev.Seq <= lastSeq {
			return fmt.Errorf("provenance: run %s event sequence not strictly increasing at %d", l.Run.ID, ev.Seq)
		}
		lastSeq = ev.Seq
		switch ev.Kind {
		case EventArtifactUsed, EventArtifactGen:
			if !execs[ev.ExecutionID] {
				return fmt.Errorf("provenance: event %d references unknown execution %q", ev.Seq, ev.ExecutionID)
			}
			if !arts[ev.ArtifactID] {
				return fmt.Errorf("provenance: event %d references unknown artifact %q", ev.Seq, ev.ArtifactID)
			}
			if ev.Kind == EventArtifactGen {
				if prev, ok := gen[ev.ArtifactID]; ok && prev != ev.ExecutionID {
					return fmt.Errorf("provenance: artifact %q generated by both %q and %q", ev.ArtifactID, prev, ev.ExecutionID)
				}
				gen[ev.ArtifactID] = ev.ExecutionID
			}
		case EventExecutionStarted, EventExecutionEnded:
			if !execs[ev.ExecutionID] {
				return fmt.Errorf("provenance: event %d references unknown execution %q", ev.Seq, ev.ExecutionID)
			}
		}
	}
	return nil
}

// HashBytes returns the canonical hex SHA-256 content hash used for
// artifact identity.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
