package standing

import (
	"repro/internal/provenance"
	"repro/internal/store"
)

// Tap sits at the top of a store stack (above the closure cache) and
// feeds every accepted ingest to a Manager, so standing subscriptions are
// maintained on the primary's local write path. Everything else is the
// embedded store's. Followers don't need a Tap: their ingests arrive
// through the replication applier, whose observer list feeds
// Manager.ApplyDelta directly.
type Tap struct {
	store.Store // the wrapped stack
	m           *Manager
}

// NewTap wraps s. The manager should have been built over the same s (or
// an outer wrapper of it), so its delta BFS sees every committed edge.
func NewTap(s store.Store, m *Manager) *Tap { return &Tap{Store: s, m: m} }

// Underlying returns the wrapped store (store.Unwrap peels the Tap off
// through this).
func (t *Tap) Underlying() store.Store { return t.Store }

// Manager returns the subscription manager the tap feeds.
func (t *Tap) Manager() *Manager { return t.m }

// PutRunLog implements Store: commit first, then fold the delta into the
// subscriptions. A failed commit reaches no subscription.
func (t *Tap) PutRunLog(l *provenance.RunLog) error {
	if err := t.Store.PutRunLog(l); err != nil {
		return err
	}
	t.m.ApplyDelta(l)
	return nil
}
