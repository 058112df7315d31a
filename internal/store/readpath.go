package store

import "repro/internal/provenance"

// Unwrap peels layering wrappers (closure cache, standing-query tap,
// tracing shims — anything with an Underlying method) off a store until it
// reaches the one that stores run logs itself. Reads need no unwrapping:
// wrappers inherit every Store method they do not override. It is for
// callers that need the concrete backend (the replication source, the
// scan layer's shard count).
func Unwrap(s Store) Store {
	for {
		u, ok := s.(interface{ Underlying() Store })
		if !ok {
			return s
		}
		s = u.Underlying()
	}
}

// Entity is one fetched entity record: the artifact or the execution an
// ID names (artifact classification wins for an ID stored as both, as in
// traversal), or neither when the ID is unknown.
type Entity struct {
	Artifact  *provenance.Artifact
	Execution *provenance.Execution
}
