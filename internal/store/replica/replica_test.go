package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/collab"
	"repro/internal/collab/api"
	"repro/internal/provenance"
	"repro/internal/query/pql"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/shardedstore"
)

// mkRun builds a run consuming the given artifacts and generating one
// fresh artifact named after the run.
func mkRun(id string, inputs ...string) *provenance.RunLog {
	exec := id + "-exec"
	out := id + "-art"
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: id, WorkflowID: "wf", Status: provenance.StatusOK}
	l.Executions = []*provenance.Execution{{ID: exec, RunID: id, ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}}
	l.Artifacts = []*provenance.Artifact{{ID: out, RunID: id, Type: "blob"}}
	var seq uint64
	seen := map[string]bool{}
	for _, in := range inputs {
		if seen[in] {
			continue
		}
		seen[in] = true
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: in, RunID: id, Type: "blob"})
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: id, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: in})
	}
	seq++
	l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: id, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out})
	return l
}

// servePrimary exposes a primary store over the v1 replication API.
func servePrimary(t *testing.T, st store.Store) *httptest.Server {
	t.Helper()
	src, err := NewSource(st)
	if err != nil {
		t.Fatal(err)
	}
	h := collab.NewHandlerWith(collab.NewRepository(st), collab.HandlerOptions{
		Source: src,
		Status: func() api.ReplicationStatus { return src.Status(nil, nil) },
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func sortedClone(ids []string) []string {
	out := append([]string(nil), ids...)
	sort.Strings(out)
	return out
}

// assertSameStore checks follower query surfaces against the primary:
// run set, closures both ways from every artifact of a sample, expand
// frontiers, stats and a PQL join.
func assertSameStore(t *testing.T, primary, follower store.Store, probes []string) {
	t.Helper()
	pr, err := primary.Runs()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := follower.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedClone(pr), sortedClone(fr)) {
		t.Fatalf("run sets differ: primary %d runs, follower %d runs", len(pr), len(fr))
	}
	for _, id := range probes {
		for _, dir := range []store.Direction{store.Up, store.Down} {
			pc, perr := primary.Closure(id, dir)
			fc, ferr := follower.Closure(id, dir)
			if (perr == nil) != (ferr == nil) {
				t.Fatalf("closure(%s,%v) error mismatch: primary=%v follower=%v", id, dir, perr, ferr)
			}
			if perr != nil {
				continue
			}
			if !reflect.DeepEqual(sortedClone(pc), sortedClone(fc)) {
				t.Fatalf("closure(%s,%v) differs: primary %d nodes, follower %d nodes", id, dir, len(pc), len(fc))
			}
		}
		pe, _ := primary.Expand([]string{id}, store.Down)
		fe, _ := follower.Expand([]string{id}, store.Down)
		if !reflect.DeepEqual(pe, fe) {
			t.Fatalf("expand(%s) differs:\nprimary  %v\nfollower %v", id, pe, fe)
		}
	}
	ps, err := primary.Stats()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := follower.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Runs != fs.Runs || ps.Artifacts != fs.Artifacts || ps.Executions != fs.Executions || ps.Events != fs.Events {
		t.Fatalf("stats differ: primary %+v follower %+v", ps, fs)
	}
	const q = "SELECT exec, artifact FROM gens JOIN artifacts ON artifact = artifacts.id ORDER BY artifact"
	pq, err := pql.Run(primary, q)
	if err != nil {
		t.Fatal(err)
	}
	fq, err := pql.Run(follower, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pq, fq) {
		t.Fatalf("PQL results differ: primary %d rows, follower %d rows", len(pq.Rows), len(fq.Rows))
	}
}

// TestFollowerBootstrapAndCatchUp is the basic single-store round trip:
// checkpointed history bootstraps a fresh follower, post-checkpoint and
// post-bootstrap ingests arrive via catch-up, and the follower's log is
// a byte-identical copy.
func TestFollowerBootstrapAndCatchUp(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	ps, err := store.OpenFileStoreWith(pdir, store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	for i := 0; i < 20; i++ {
		if err := ps.PutRunLog(mkRun(fmt.Sprintf("pre-%03d", i), "pre-000-art")); err != nil && i > 0 {
			t.Fatal(err)
		}
	}
	if err := ps.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := ps.PutRunLog(mkRun(fmt.Sprintf("post-%03d", i), "pre-005-art")); err != nil {
			t.Fatal(err)
		}
	}
	srv := servePrimary(t, ps)

	f, err := Open(Options{Dir: fdir, Primary: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The bootstrap installed the primary's checkpoint, so the follower
	// opened by restoring the snapshot, not by scanning history.
	if _, ok := f.shards[0].LastCheckpoint(); !ok {
		t.Fatal("fresh follower did not install the primary's checkpoint before opening")
	}
	if err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// More primary traffic after the follower exists.
	for i := 10; i < 25; i++ {
		if err := ps.PutRunLog(mkRun(fmt.Sprintf("post-%03d", i), fmt.Sprintf("post-%03d-art", i-10))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	assertSameStore(t, ps, f.Store(), []string{"pre-000-art", "pre-005-art", "post-000-art", "post-014-exec"})

	pbytes, err := os.ReadFile(filepath.Join(pdir, store.LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	fbytes, err := os.ReadFile(filepath.Join(fdir, store.LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	if string(pbytes) != string(fbytes) {
		t.Fatalf("follower log is not a byte-identical copy: primary %d bytes, follower %d bytes", len(pbytes), len(fbytes))
	}
	if applied, behind := f.Lag(); behind != 0 || applied != int64(len(pbytes)) {
		t.Fatalf("lag after catch-up: applied=%d behind=%d, want applied=%d behind=0", applied, behind, len(pbytes))
	}
}

// TestFollowerCrashTruncationFuzz kills the follower mid-batch at random
// points: after each partial catch-up the follower's log gains a torn
// record tail (the bytes a crash mid-apply leaves), then the follower
// reopens and resumes. The reopened store must equal a replay of the
// exact committed prefix — the same contract the primary's own reopen
// holds — and finish byte-identical after final catch-up.
func TestFollowerCrashTruncationFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const iters = 6
	for iter := 0; iter < iters; iter++ {
		pdir, fdir := t.TempDir(), t.TempDir()
		ps, err := store.OpenFileStoreWith(pdir, store.FileOptions{Durability: store.DurabilityGroup})
		if err != nil {
			t.Fatal(err)
		}
		total := 30 + rng.Intn(40)
		arts := []string{}
		put := func(i int) {
			var inputs []string
			if len(arts) > 0 && rng.Intn(3) > 0 {
				inputs = append(inputs, arts[rng.Intn(len(arts))])
			}
			id := fmt.Sprintf("it%d-run-%03d", iter, i)
			if err := ps.PutRunLog(mkRun(id, inputs...)); err != nil {
				t.Fatal(err)
			}
			arts = append(arts, id+"-art")
		}
		half := total / 2
		for i := 0; i < half; i++ {
			put(i)
		}
		if rng.Intn(2) == 0 {
			if err := ps.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		for i := half; i < total; i++ {
			put(i)
		}
		srv := servePrimary(t, ps)

		f, err := Open(Options{Dir: fdir, Primary: srv.URL, MaxBatchBytes: 256 + rng.Intn(2048)})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.CatchUp(); err != nil {
			t.Fatal(err)
		}
		// Crash: close the follower, then simulate a torn in-flight batch
		// by appending a random-length prefix of undelivered primary bytes
		// (no trailing newline) to its log — what a kill mid-write leaves.
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// Grow the primary past the follower's applied point so there are
		// undelivered bytes to tear.
		for i := total; i < total+8; i++ {
			put(i)
		}
		pbytes, err := os.ReadFile(filepath.Join(pdir, store.LogFileName))
		if err != nil {
			t.Fatal(err)
		}
		flog := filepath.Join(fdir, store.LogFileName)
		fbytes, err := os.ReadFile(flog)
		if err != nil {
			t.Fatal(err)
		}
		undelivered := pbytes[len(fbytes):]
		if len(undelivered) > 1 {
			cut := 1 + rng.Intn(len(undelivered)-1)
			if undelivered[cut-1] == '\n' {
				cut-- // keep the tear torn: no trailing record boundary
			}
			if cut > 0 {
				lf, err := os.OpenFile(flog, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := lf.Write(undelivered[:cut]); err != nil {
					t.Fatal(err)
				}
				lf.Close()
			}
		}
		// Reopen: the truncation scan must drop the torn tail, leaving the
		// exact committed prefix, and the resumed stream must complete it.
		f2, err := Open(Options{Dir: fdir, Primary: srv.URL, MaxBatchBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		fb2, err := os.ReadFile(flog)
		if err != nil {
			t.Fatal(err)
		}
		applied := f2.shards[0].CommittedOffset()
		if string(fb2[:applied]) != string(pbytes[:applied]) {
			t.Fatalf("iter %d: reopened follower log is not a primary prefix at applied=%d", iter, applied)
		}
		if err := f2.CatchUp(); err != nil {
			t.Fatal(err)
		}
		fb3, err := os.ReadFile(flog)
		if err != nil {
			t.Fatal(err)
		}
		if string(fb3) != string(pbytes) {
			t.Fatalf("iter %d: follower log diverged after resume: %d vs %d bytes", iter, len(fb3), len(pbytes))
		}
		probe := []string{arts[rng.Intn(len(arts))], arts[rng.Intn(len(arts))]}
		assertSameStore(t, ps, f2.Store(), probe)
		if err := f2.Close(); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFollowerPropertyShardedWithCache is the randomized equivalence
// property on a sharded primary: random DAG ingests with checkpoints at
// random boundaries, one follower attached early (tailing in the
// background), one bootstrapped late across checkpoint boundaries, the
// early follower's reads going through a closure cache patched by the
// replication apply hook. After catch-up, every query surface must be
// set-equal to the primary on both followers.
func TestFollowerPropertyShardedWithCache(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pdir := t.TempDir()
	const shards = 3
	pr, err := shardedstore.OpenWith(pdir, shards, store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	srv := servePrimary(t, pr)

	var arts []string
	put := func(i int) {
		var inputs []string
		for len(arts) > 0 && len(inputs) < 3 && rng.Intn(2) == 0 {
			inputs = append(inputs, arts[rng.Intn(len(arts))])
		}
		id := fmt.Sprintf("p-run-%04d", i)
		if err := pr.PutRunLog(mkRun(id, inputs...)); err != nil {
			t.Fatal(err)
		}
		arts = append(arts, id+"-art")
	}

	for i := 0; i < 40; i++ {
		put(i)
	}

	// Early follower: background tailer + closure cache patched via the
	// apply hook; queries warm the cache while replication keeps writing.
	f1, err := Open(Options{Dir: t.TempDir(), Primary: srv.URL, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	cache := closurecache.Wrap(f1.Store())
	f1.Observe(cache.ApplyDelta)
	f1.Start()

	for i := 40; i < 140; i++ {
		put(i)
		if i%25 == 0 {
			if err := pr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			// Query through the cache mid-replication: results may lag the
			// primary (a just-published entity may not exist yet on the
			// follower — that is staleness, and legal) but must never fail
			// any other way or corrupt the cache.
			if _, err := cache.Closure(arts[rng.Intn(len(arts))], store.Up); err != nil && !errors.Is(err, store.ErrNotFound) {
				t.Fatal(err)
			}
		}
	}

	// Late follower bootstraps across the checkpoint boundaries above.
	f2, err := Open(Options{Dir: t.TempDir(), Primary: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if !f2.Sharded() {
		t.Fatal("follower of a sharded primary must open sharded")
	}

	for i := 140; i < 170; i++ {
		put(i)
	}
	if err := f1.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if err := f2.CatchUp(); err != nil {
		t.Fatal(err)
	}

	probes := make([]string, 0, 8)
	for len(probes) < 8 {
		probes = append(probes, arts[rng.Intn(len(arts))])
	}
	assertSameStore(t, pr, f1.Store(), probes)
	assertSameStore(t, pr, cache, probes)
	assertSameStore(t, pr, f2.Store(), probes)

	if m := cache.Metrics(); m.Ingests == 0 {
		t.Fatal("replication apply hook never patched the closure cache")
	}
	st := f2.Status()
	if st.Role != "follower" || len(st.Shards) != shards {
		t.Fatalf("follower status: %+v", st)
	}
	for _, sp := range st.Shards {
		if sp.Lag != 0 || sp.Applied != sp.Committed {
			t.Fatalf("shard %d not caught up: %+v", sp.Shard, sp)
		}
	}
}

// TestSourceRejectsMemStore pins the error contract: replication needs
// a file-backed log.
func TestSourceRejectsMemStore(t *testing.T) {
	if _, err := NewSource(store.NewMemStore()); err == nil {
		t.Fatal("NewSource accepted a memory store")
	}
}
