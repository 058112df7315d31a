package store

// LocalWalk is one closure's walk over one backend's handle space, what
// LocalCloser.CloseLocal reads and writes. Across the calls of a closure
// it keeps which handles the closure has reached on the backend, and the
// exported slices hold everything the closure has expanded there: each
// call appends what it expands. Within a closure a walk belongs to one
// backend; its buffers are reused from closure to closure (FileStore's
// own Closure walks with one too): the zero value is ready, Begin starts
// the next closure.
type LocalWalk struct {
	Order []int32  // handles expanded, call after call, in local discovery order
	IDs   []string // IDs[i] is the ID of Order[i]
	Ends  []int32  // Order[i]'s neighbours are Adj[Ends[i]:Ends[i+1]]
	Adj   []int32  // the neighbour lists, back to back
	// Handles bounds every handle of the walk: the size of the backend's
	// handle space at the last call.
	Handles int

	stamp []uint32 // stamp[h] == epoch: h reached by this closure
	epoch uint32
}

// Begin starts a new closure: nothing counts as reached or expanded any
// more. Starting is one increment, not a clear of the stamps.
func (w *LocalWalk) Begin() {
	w.Order, w.IDs, w.Adj = w.Order[:0], w.IDs[:0], w.Adj[:0]
	w.Ends = append(w.Ends[:0], 0)
	w.epoch++
	if w.epoch == 0 { // wrapped: stamps of 2³² closures ago would read as fresh
		clear(w.stamp)
		w.epoch = 1
	}
}

// localGraph is a backend's handle space as a LocalWalk walks it.
type localGraph interface {
	// handle resolves an ID to its handle.
	handle(id string) (int32, bool)
	// size is the number of handles: every handle is below it.
	size() int
	// appendAdjacent appends the neighbour handles of h in dir to dst, in
	// ID order, and reports h's ID; ok is false when no run stored h.
	appendAdjacent(dst []int32, h int32, dir Direction) (id string, out []int32, ok bool)
}

// close is the local fixpoint of CloseLocal over g, whose lock the caller
// holds.
func (w *LocalWalk) close(g localGraph, seeds []string, dir Direction) {
	if w.epoch == 0 {
		w.Begin()
	}
	w.Handles = g.size()
	w.cover(w.Handles)
	expanded := len(w.Order)
	for _, id := range seeds {
		if h, ok := g.handle(id); ok {
			w.reach(h)
		}
	}
	// Order past what earlier calls expanded is the BFS queue; expanded
	// handles are compacted to its front as the walk passes them, so it
	// ends as this call's result order.
	for i := expanded; i < len(w.Order); i++ {
		h := w.Order[i]
		from := len(w.Adj)
		id, adj, ok := g.appendAdjacent(w.Adj, h, dir)
		if !ok {
			continue
		}
		w.Adj = adj
		w.Order[expanded] = h
		expanded++
		w.IDs = append(w.IDs, id)
		w.Ends = append(w.Ends, int32(len(adj)))
		for _, n := range adj[from:] {
			w.reach(n)
		}
	}
	w.Order = w.Order[:expanded]
}

// cover makes the stamps cover n handles, with headroom so that a backend
// growing by a run at a time does not reallocate them on every closure;
// what is reached stays so.
func (w *LocalWalk) cover(n int) {
	if len(w.stamp) < n {
		grown := make([]uint32, n+n/4+64)
		copy(grown, w.stamp)
		w.stamp = grown
	}
}

// reach queues h the first time the closure sees it.
func (w *LocalWalk) reach(h int32) {
	if w.stamp[h] != w.epoch {
		w.stamp[h] = w.epoch
		w.Order = append(w.Order, h)
	}
}
