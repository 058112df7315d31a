package store_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/provenance"
	"repro/internal/query/standing"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/shardedstore"
)

// contractBackends open each backend over dir; a file-backed one reopens
// what an earlier open of the same dir stored.
var contractBackends = []struct {
	name string
	open func(dir string) (store.Store, error)
	file bool
}{
	{"mem", func(string) (store.Store, error) { return store.NewMemStore(), nil }, false},
	{"triple", func(string) (store.Store, error) { return store.NewTripleStore(), nil }, false},
	{"file", func(dir string) (store.Store, error) { return store.OpenFileStore(dir) }, true},
	{"mem-router", func(string) (store.Store, error) { return shardedstore.NewMem(4), nil }, false},
	{"file-router", func(dir string) (store.Store, error) { return shardedstore.OpenWith(dir, 4, store.FileOptions{}) }, true},
}

// contractWrappers layer a backend the ways the serving stacks do; nil
// means the wrapper does not apply to that backend (only a router traces).
var contractWrappers = []struct {
	name string
	wrap func(store.Store) store.Store
}{
	{"bare", func(s store.Store) store.Store { return s }},
	{"cache", func(s store.Store) store.Store { return closurecache.Wrap(s) }},
	{"tap-over-cache", func(s store.Store) store.Store {
		c := closurecache.Wrap(s)
		return standing.NewTap(c, standing.NewManager(c, standing.Options{}))
	}},
	{"trace", func(s store.Store) store.Store {
		if r, ok := s.(*shardedstore.Router); ok {
			return r.WithTrace(func(shardedstore.ClosureTrace) {})
		}
		return nil
	}},
}

// contractLogs is the workload: rowsRun's chain, whose IDs recur across
// runs, then a run declaring "dual" as both an artifact and an execution.
func contractLogs() []*provenance.RunLog {
	var logs []*provenance.RunLog
	for i := 0; i < 12; i++ {
		logs = append(logs, rowsRun(i))
	}
	dual := chainRun(12, "dual")
	dual.Executions = append(dual.Executions, &provenance.Execution{
		ID: "dual", RunID: dual.Run.ID, ModuleID: "m-dual", ModuleType: "Dual", Status: provenance.StatusOK, WallNanos: 7,
	})
	return append(logs, dual)
}

// TestStoreContract holds every backend, bare and under every wrapper, to
// MemStore on the Store methods every backend has: Entities (an unknown
// ID, a run ID, an ID stored as both kinds), ScanLogs at every kind of
// skip, ScanRows against Rows of each log, and, on the file-backed ones,
// Checkpoint reaching the files and a reopen answering the same.
func TestStoreContract(t *testing.T) {
	logs := contractLogs()
	ref := store.NewMemStore()
	var ids []string
	for _, l := range logs {
		if err := ref.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		for _, e := range l.Executions {
			ids = append(ids, e.ID)
		}
		for _, a := range l.Artifacts {
			ids = append(ids, a.ID)
		}
	}
	ids = append(ids, "no-such-entity", logs[0].Run.ID)
	want, err := ref.Entities(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id == "dual" && want[i].Artifact == nil {
			t.Fatalf("MemStore classified dual as %+v, want the artifact", want[i])
		}
	}

	for _, b := range contractBackends {
		for _, w := range contractWrappers {
			dir := t.TempDir()
			base, err := b.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s := w.wrap(base)
			if s == nil {
				base.Close()
				continue
			}
			t.Run(b.name+"/"+w.name, func(t *testing.T) {
				defer func() { s.Close() }()
				for _, l := range logs {
					if err := s.PutRunLog(l); err != nil {
						t.Fatal(err)
					}
				}
				checkContract(t, s, b.name, logs, ids, want)
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				if !b.file {
					return
				}
				for _, fs := range fileStores(t, s) {
					if _, ok := fs.LastCheckpoint(); !ok {
						t.Fatalf("Checkpoint through %s did not reach %s", w.name, fs.Dir())
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if base, err = b.open(dir); err != nil {
					t.Fatal(err)
				}
				s = w.wrap(base)
				checkContract(t, s, b.name, logs, ids, want)
			})
		}
	}
}

// fileStores are the files beneath a file-backed stack.
func fileStores(t *testing.T, s store.Store) []*store.FileStore {
	switch base := store.Unwrap(s).(type) {
	case *store.FileStore:
		return []*store.FileStore{base}
	case *shardedstore.Router:
		var out []*store.FileStore
		for i := 0; i < base.NumShards(); i++ {
			fs, err := base.FileShard(i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fs)
		}
		return out
	}
	t.Fatalf("%T is not file-backed", s)
	return nil
}

func checkContract(t *testing.T, s store.Store, backend string, logs []*provenance.RunLog, ids []string, want []store.Entity) {
	t.Helper()
	got, err := s.Entities(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		g, w := got[i], want[i]
		if backend == "triple" {
			// The triple vocabulary holds no size or wall time.
			w = withoutUnstored(w)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("Entities[%s] = %s, MemStore says %s", id, fmtEntity(g), fmtEntity(w))
		}
	}

	n := len(logs)
	for _, skip := range []int{-1, 0, 5, n, n + 1} {
		var runs []string
		if err := s.ScanLogs(skip, func(l *provenance.RunLog) error {
			runs = append(runs, l.Run.ID)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		from := min(max(skip, 0), n)
		if len(runs) != n-from {
			t.Fatalf("ScanLogs(%d) visited %d runs, want %d", skip, len(runs), n-from)
		}
		for k, id := range runs {
			if id != logs[from+k].Run.ID {
				t.Fatalf("ScanLogs(%d): run %d is %s, want %s", skip, k, id, logs[from+k].Run.ID)
			}
		}
	}

	k := 0
	if err := s.ScanRows(func(r *store.RunRows) error {
		if k >= n {
			return fmt.Errorf("ScanRows visited more than the %d runs stored", n)
		}
		if w := store.Rows(logs[k]); !reflect.DeepEqual(r, w) {
			return fmt.Errorf("ScanRows run %d:\n got %+v\nwant %+v", k, r, w)
		}
		k++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if k != n {
		t.Fatalf("ScanRows visited %d runs, want %d", k, n)
	}
}

// withoutUnstored is e without the fields TripleStore's vocabulary does
// not keep.
func withoutUnstored(e store.Entity) store.Entity {
	if e.Artifact != nil {
		a := *e.Artifact
		a.Size = 0
		e.Artifact = &a
	}
	if e.Execution != nil {
		x := *e.Execution
		x.WallNanos = 0
		e.Execution = &x
	}
	return e
}

func fmtEntity(e store.Entity) string {
	switch {
	case e.Artifact != nil:
		return fmt.Sprintf("artifact %+v", *e.Artifact)
	case e.Execution != nil:
		return fmt.Sprintf("execution %+v", *e.Execution)
	}
	return "unknown"
}
