// Package collab implements the social-data-analysis substrate of §2.3
// [19]: a science collaboratory where users share, search, re-use and rate
// workflows and their provenance. It provides a multi-user repository with
// full-text search, usage-based recommendation, a synthetic community
// generator for experiments, and an HTTP service (cmd/provd) exposing the
// repository and lineage queries.
package collab

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/workflow"
)

// Entry is a shared workflow with its social metadata.
type Entry struct {
	Workflow    *workflow.Workflow `json:"workflow"`
	Owner       string             `json:"owner"`
	Description string             `json:"description"`
	Tags        []string           `json:"tags"`
	Downloads   int                `json:"downloads"`
	Ratings     map[string]int     `json:"ratings"` // user -> 1..5
}

// AverageRating returns the mean rating, or 0 with ok=false when unrated.
func (e *Entry) AverageRating() (float64, bool) {
	if len(e.Ratings) == 0 {
		return 0, false
	}
	sum := 0
	for _, r := range e.Ratings {
		sum += r
	}
	return float64(sum) / float64(len(e.Ratings)), true
}

// Repository is the collaboratory: shared workflows plus a provenance
// store for the runs users publish. Safe for concurrent use.
type Repository struct {
	mu      sync.RWMutex
	entries map[string]*Entry // workflow ID -> entry
	order   []string
	runsBy  map[string][]string // workflow ID -> run IDs
	userOf  map[string]string   // run ID -> user
	store   store.Store
	index   *invertedIndex
}

// NewRepository returns an empty collaboratory persisting run logs to s.
func NewRepository(s store.Store) *Repository {
	return &Repository{
		entries: map[string]*Entry{},
		runsBy:  map[string][]string{},
		userOf:  map[string]string{},
		store:   s,
		index:   newInvertedIndex(),
	}
}

// Store exposes the underlying provenance store (read-only use).
func (r *Repository) Store() store.Store { return r.store }

// Publish shares a workflow. Workflow IDs are unique in the repository.
func (r *Repository) Publish(wf *workflow.Workflow, owner, description string, tags ...string) error {
	if err := wf.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[wf.ID]; dup {
		return fmt.Errorf("collab: workflow %q already published", wf.ID)
	}
	e := &Entry{Workflow: wf.Clone(), Owner: owner, Description: description,
		Tags: append([]string(nil), tags...), Ratings: map[string]int{}}
	r.entries[wf.ID] = e
	r.order = append(r.order, wf.ID)
	r.index.add(wf.ID, indexText(e))
	return nil
}

// indexText collects the searchable text of an entry.
func indexText(e *Entry) string {
	var parts []string
	parts = append(parts, e.Workflow.ID, e.Workflow.Name, e.Owner, e.Description)
	parts = append(parts, e.Tags...)
	for _, m := range e.Workflow.Modules {
		parts = append(parts, m.ID, m.Type)
		for _, v := range m.Annotations {
			parts = append(parts, v)
		}
	}
	for _, v := range e.Workflow.Annotations {
		parts = append(parts, v)
	}
	return strings.Join(parts, " ")
}

// Get retrieves an entry and counts the download.
func (r *Repository) Get(workflowID string) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[workflowID]
	if !ok {
		return nil, fmt.Errorf("collab: workflow %q not found", workflowID)
	}
	e.Downloads++
	return e, nil
}

// Peek retrieves an entry without counting a download.
func (r *Repository) Peek(workflowID string) (*Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[workflowID]
	if !ok {
		return nil, fmt.Errorf("collab: workflow %q not found", workflowID)
	}
	return e, nil
}

// List returns all workflow IDs in publication order.
func (r *Repository) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Rate records a 1-5 rating by a user.
func (r *Repository) Rate(workflowID, user string, stars int) error {
	if stars < 1 || stars > 5 {
		return fmt.Errorf("collab: rating %d out of range 1..5", stars)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[workflowID]
	if !ok {
		return fmt.Errorf("collab: workflow %q not found", workflowID)
	}
	e.Ratings[user] = stars
	return nil
}

// PublishRun stores the provenance of a run of a published workflow,
// attributed to a user. The run must be of that workflow: a log whose
// Run.WorkflowID names another is refused before anything is stored.
func (r *Repository) PublishRun(workflowID, user string, log *provenance.RunLog) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[workflowID]; !ok {
		return fmt.Errorf("collab: workflow %q not found", workflowID)
	}
	if log.Run.WorkflowID != workflowID {
		return fmt.Errorf("collab: run %q is of workflow %q, not %q", log.Run.ID, log.Run.WorkflowID, workflowID)
	}
	if err := r.store.PutRunLog(log); err != nil {
		return err
	}
	r.runsBy[workflowID] = append(r.runsBy[workflowID], log.Run.ID)
	r.userOf[log.Run.ID] = user
	return nil
}

// RunsOf returns the run IDs published for a workflow.
func (r *Repository) RunsOf(workflowID string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.runsBy[workflowID]...)
}

// UserOfRun returns who published a run.
func (r *Repository) UserOfRun(runID string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.userOf[runID]
}

// Stats summarizes repository contents.
type Stats struct {
	Workflows int
	Runs      int
	Users     int
}

// Stat computes repository statistics.
func (r *Repository) Stat() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	users := map[string]bool{}
	runs := 0
	for _, e := range r.entries {
		users[e.Owner] = true
	}
	for _, list := range r.runsBy {
		runs += len(list)
	}
	for _, u := range r.userOf {
		users[u] = true
	}
	return Stats{Workflows: len(r.entries), Runs: runs, Users: len(users)}
}

// --- search ----------------------------------------------------------------

// invertedIndex is a token -> document-ID index with term frequencies.
type invertedIndex struct {
	postings map[string]map[string]int
	docLen   map[string]int
}

func newInvertedIndex() *invertedIndex {
	return &invertedIndex{postings: map[string]map[string]int{}, docLen: map[string]int{}}
}

func tokenize(text string) []string {
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !('a' <= r && r <= 'z' || '0' <= r && r <= '9')
	})
	return fields
}

func (ix *invertedIndex) add(docID, text string) {
	toks := tokenize(text)
	ix.docLen[docID] = len(toks)
	for _, tok := range toks {
		m, ok := ix.postings[tok]
		if !ok {
			m = map[string]int{}
			ix.postings[tok] = m
		}
		m[docID]++
	}
}

// SearchResult is a scored hit.
type SearchResult struct {
	WorkflowID string
	Score      float64
}

// Search ranks published workflows against a free-text query with a
// TF-normalized score summed over query tokens. Empty query returns nil.
func (r *Repository) Search(query string, topK int) []SearchResult {
	r.mu.RLock()
	defer r.mu.RUnlock()
	toks := tokenize(query)
	if len(toks) == 0 {
		return nil
	}
	scores := map[string]float64{}
	for _, tok := range toks {
		for doc, tf := range r.index.postings[tok] {
			scores[doc] += float64(tf) / float64(r.index.docLen[doc]+1)
		}
	}
	out := make([]SearchResult, 0, len(scores))
	for doc, sc := range scores {
		out = append(out, SearchResult{WorkflowID: doc, Score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].WorkflowID < out[j].WorkflowID
	})
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out
}
