package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collab"
	"repro/internal/collab/api"
	"repro/internal/faultinject"
	"repro/internal/store"
)

// serveFailover exposes a store over the full v1 face with a failover
// coordinator wired — the provd deployment shape, for either role.
func serveFailover(t *testing.T, st store.Store, node *Node) *httptest.Server {
	t.Helper()
	src, err := NewSource(st)
	if err != nil {
		t.Fatal(err)
	}
	opts := collab.HandlerOptions{
		Source:   src,
		Failover: node,
		Status:   func() api.ReplicationStatus { return node.Status(src, nil, nil) },
	}
	srv := httptest.NewServer(collab.NewHandlerWith(collab.NewRepository(st), opts))
	t.Cleanup(srv.Close)
	return srv
}

// postWrite sends a minimal store write and returns the decoded status
// and error code — the middleware's verdict is all these tests read.
func postWrite(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/workflows", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.Error
	_ = readJSON(resp, &env)
	return resp.StatusCode, env.Code
}

func readJSON(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestNodeEpochPersistence pins the fencing state's durability: a
// primary starts at epoch 1, a fencing observation persists, and both
// survive a restart.
func TestNodeEpochPersistence(t *testing.T) {
	dir := t.TempDir()
	n, err := NewNode(dir, api.RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Epoch() != 1 || n.Fenced() {
		t.Fatalf("fresh primary: epoch=%d fenced=%v", n.Epoch(), n.Fenced())
	}
	if _, err := os.Stat(filepath.Join(dir, EpochFileName)); err != nil {
		t.Fatalf("fresh primary did not persist its epoch: %v", err)
	}

	// Lower and equal epochs are no-ops; a higher one fences.
	if n.Observe(1) || n.Observe(0) {
		t.Fatal("observing a non-higher epoch fenced the node")
	}
	if !n.Observe(5) {
		t.Fatal("observing a higher epoch did not fence the primary")
	}
	if n.Epoch() != 5 || !n.Fenced() {
		t.Fatalf("after Observe(5): epoch=%d fenced=%v", n.Epoch(), n.Fenced())
	}
	// Re-observing the same epoch does not re-fence.
	if n.Observe(5) {
		t.Fatal("re-observing the adopted epoch fenced again")
	}

	// A fenced primary stays fenced across restart — it must not come
	// back up accepting writes just because it rebooted.
	n2, err := NewNode(dir, api.RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Epoch() != 5 || !n2.Fenced() {
		t.Fatalf("reloaded node: epoch=%d fenced=%v, want 5/fenced", n2.Epoch(), n2.Fenced())
	}

	// A dir-less node works in memory.
	m, err := NewNode("", api.RolePrimary, nil)
	if err != nil || m.Epoch() != 1 {
		t.Fatalf("memory node: %v, epoch=%d", err, m.Epoch())
	}

	// Promoting a non-follower is a conflict, surfaced as a RemoteError
	// so the HTTP layer keeps the status without importing this package.
	if _, err := n2.Promote(context.Background()); err != ErrNotFollower {
		t.Fatalf("promote primary = %v, want ErrNotFollower", err)
	}
}

// TestNodeEpochFileReloadAndSweep pins the epoch file's format and its
// write path: a plain-JSON file written before the atomic-write helper
// still loads, the next persist sweeps the temp a crashed write left
// beside it, and what it installs is plain JSON again.
func TestNodeEpochFileReloadAndSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, EpochFileName)
	if err := os.WriteFile(path, []byte(`{"epoch":7,"fenced":false}`), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := path + ".tmp-123"
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(dir, api.RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Epoch() != 7 || n.Fenced() {
		t.Fatalf("loaded node: epoch=%d fenced=%v, want 7/unfenced", n.Epoch(), n.Fenced())
	}
	if !n.Observe(9) {
		t.Fatal("observing a higher epoch did not fence the primary")
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("crashed temp survived the persist: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st epochState
	if err := json.Unmarshal(data, &st); err != nil || st != (epochState{Epoch: 9, Fenced: true}) {
		t.Fatalf("epoch file = %s (%v), want plain JSON of epoch 9, fenced", data, err)
	}
	n2, err := NewNode(dir, api.RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Epoch() != 9 || !n2.Fenced() {
		t.Fatalf("reloaded node: epoch=%d fenced=%v, want 9/fenced", n2.Epoch(), n2.Fenced())
	}
}

// TestPromotionCutover drives the full failover sequence over HTTP: a
// replicating pair, promote the follower, old primary fenced, writes
// move, and a fresh follower replicates from the new primary.
func TestPromotionCutover(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	ps, err := store.OpenFileStoreWith(pdir, store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	nodeA, err := NewNode(pdir, api.RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	srvA := serveFailover(t, ps, nodeA)

	for i := 0; i < 25; i++ {
		if err := ps.PutRunLog(mkRun(fmt.Sprintf("run-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}

	f, err := Open(Options{Dir: fdir, Primary: srvA.URL, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := NewNode(fdir, api.RoleFollower, f)
	if err != nil {
		t.Fatal(err)
	}
	srvB := serveFailover(t, f.Store(), nodeB)
	f.Start()
	if err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}

	// Pre-cutover: B is read-only, A accepts writes (the malformed body
	// reaches validation, proving it passed the replica guard).
	if code, ec := postWrite(t, srvB.URL); code != http.StatusForbidden || ec != api.CodeReadOnlyReplica {
		t.Fatalf("follower write = %d/%s", code, ec)
	}
	if code, _ := postWrite(t, srvA.URL); code != http.StatusBadRequest {
		t.Fatalf("primary write = %d, want it past the replica guard", code)
	}

	// Promote over the API — the provctl path.
	cb := api.NewClient(srvB.URL, nil)
	pr, err := cb.Promote(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pr.Role != api.RolePrimary || pr.Epoch != 2 || pr.DrainErr != "" {
		t.Fatalf("promote = %+v", pr)
	}
	if !pr.OldPrimaryFenced || pr.FenceErr != "" {
		t.Fatalf("old primary not fenced at cutover: %+v", pr)
	}
	if nodeB.Role() != api.RolePrimary || nodeB.Epoch() != 2 || nodeB.Fenced() {
		t.Fatalf("nodeB after promote: role=%s epoch=%d fenced=%v", nodeB.Role(), nodeB.Epoch(), nodeB.Fenced())
	}
	if !nodeA.Fenced() || nodeA.Epoch() != 2 {
		t.Fatalf("nodeA after promote: epoch=%d fenced=%v", nodeA.Epoch(), nodeA.Fenced())
	}

	// Split-brain guard: the old primary bounces writes, the new one
	// accepts them, and a request still acting on epoch 1 is rejected.
	if code, ec := postWrite(t, srvA.URL); code != http.StatusForbidden || ec != api.CodeFenced {
		t.Fatalf("fenced primary write = %d/%s", code, ec)
	}
	if code, _ := postWrite(t, srvB.URL); code != http.StatusBadRequest {
		t.Fatalf("new primary write = %d, want it past the replica guard", code)
	}
	req, err := http.NewRequest(http.MethodGet, srvB.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.HeaderReplicationEpoch, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env api.Error
	_ = readJSON(resp, &env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || env.Code != api.CodeStaleEpoch {
		t.Fatalf("stale-epoch read on new primary = %d/%s", resp.StatusCode, env.Code)
	}

	// The promoted node writes to its own store and ships its own log: a
	// fresh follower off srvB converges byte-identically, at epoch 2.
	if err := f.Store().PutRunLog(mkRun("post-cutover", "run-003-art")); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(Options{Dir: t.TempDir(), Primary: srvB.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if err := f2.CatchUp(); err != nil {
		t.Fatal(err)
	}
	assertSameStore(t, f.Store(), f2.Store(), []string{"run-003-art", "post-cutover-art"})
	if e := f2.Client().Epoch(); e != 2 {
		t.Fatalf("new follower's observed epoch = %d, want 2", e)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosPartitionsAndPromotion is the fault-injection property test:
// a replicating pair under a deterministic schedule of injected errors,
// latency, truncated responses and full partitions, with concurrent
// primary writes — after healing, the follower must converge to a
// byte-identical log; after a mid-partition promotion, the fleet must
// end with exactly one writable primary and the shipped prefix intact.
func TestChaosPartitionsAndPromotion(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { chaosScenario(t, seed) })
	}
}

func chaosScenario(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pdir, fdir := t.TempDir(), t.TempDir()
	ps, err := store.OpenFileStoreWith(pdir, store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	nodeA, err := NewNode(pdir, api.RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	srvA := serveFailover(t, ps, nodeA)

	var arts []string
	put := func(st store.Store, id string) {
		var inputs []string
		if len(arts) > 0 && rng.Intn(3) > 0 {
			inputs = append(inputs, arts[rng.Intn(len(arts))])
		}
		if err := st.PutRunLog(mkRun(id, inputs...)); err != nil {
			t.Fatal(err)
		}
		arts = append(arts, id+"-art")
	}
	for i := 0; i < 20; i++ {
		put(ps, fmt.Sprintf("seed-%03d", i))
	}

	ft := faultinject.New(http.DefaultTransport, faultinject.Options{
		Seed:         seed,
		ErrorRate:    0.15,
		LatencyRate:  0.3,
		Latency:      500 * time.Microsecond,
		TruncateRate: 0.1,
	})
	// Error injection can fail any exchange, including the ones Open
	// needs; a real operator retries, so does the test. A partially
	// bootstrapped log resumes where it stopped.
	var f *Follower
	for attempt := 0; ; attempt++ {
		f, err = Open(Options{
			Dir: fdir, Primary: srvA.URL, Client: ft.Client(),
			Poll: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
			RequestTimeout: 2 * time.Second, BackoffSeed: seed,
			MaxBatchBytes: 2048,
		})
		if err == nil {
			break
		}
		if attempt > 100 {
			t.Fatalf("follower never opened under injection: %v", err)
		}
	}
	nodeB, err := NewNode(fdir, api.RoleFollower, f)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()

	// Concurrent load: the primary ingests while the link flaps through
	// full partitions, injected errors, latency and truncated bodies.
	var wg sync.WaitGroup
	wg.Add(1)
	stopChaos := make(chan struct{})
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(seed + 1))
		for {
			select {
			case <-stopChaos:
				return
			case <-time.After(time.Duration(2+r.Intn(8)) * time.Millisecond):
			}
			ft.Partition()
			select {
			case <-stopChaos:
				ft.Heal()
				return
			case <-time.After(time.Duration(2+r.Intn(8)) * time.Millisecond):
			}
			ft.Heal()
		}
	}()
	// At least 80 runs, and on until the flapping link has refused an
	// exchange: a fixed count of fast ingests can fit between two of the
	// follower's polls, and then no poll ever meets a partition.
	for i := 0; i < 80 || ft.Stats().Partitioned == 0; i++ {
		if i == 20000 {
			t.Fatal("no exchange met a partition in 20000 ingests")
		}
		put(ps, fmt.Sprintf("chaos-%03d", i))
		if i%16 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	close(stopChaos)
	wg.Wait()

	// Healed: the follower must converge despite injection staying on.
	var caught bool
	for attempt := 0; attempt < 300; attempt++ {
		if err := f.CatchUp(); err == nil {
			if _, behind := f.Lag(); behind == 0 {
				caught = true
				break
			}
		}
	}
	if !caught {
		t.Fatal("follower never converged after healing")
	}
	pbytes, err := os.ReadFile(filepath.Join(pdir, store.LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	fbytes, err := os.ReadFile(filepath.Join(fdir, store.LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	if string(pbytes) != string(fbytes) {
		t.Fatalf("healed follower log diverged: primary %d bytes, follower %d bytes", len(pbytes), len(fbytes))
	}
	probes := []string{arts[rng.Intn(len(arts))], arts[rng.Intn(len(arts))], arts[0]}
	assertSameStore(t, ps, f.Store(), probes)
	st := ft.Stats()
	if st.Errors == 0 || st.Truncations == 0 || st.Partitioned == 0 {
		t.Fatalf("chaos schedule was degenerate: %+v", st)
	}

	// Partition for good and write on the primary: bytes past the
	// replication boundary, lost by design (no quorum commit — the log
	// records which, so nothing is silently wrong).
	ft.Partition()
	for i := 0; i < 3; i++ {
		put(ps, fmt.Sprintf("stranded-%03d", i))
	}

	// Promote the unreachable follower: the drain cannot complete, the
	// cutover must anyway.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	pr, err := nodeB.Promote(ctx)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if pr.Role != api.RolePrimary || pr.Epoch != 2 {
		t.Fatalf("partitioned promote = %+v", pr)
	}
	if pr.DrainErr == "" || pr.FenceErr == "" {
		t.Fatalf("partitioned promote should record drain and fence failures: %+v", pr)
	}
	// The shipped prefix is intact: everything B applied is a byte-exact
	// primary prefix — no acked-and-replicated write was lost or mangled.
	fb2, err := os.ReadFile(filepath.Join(fdir, store.LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	if pr.AppliedBytes > int64(len(fb2)) {
		t.Fatalf("applied=%d exceeds follower log %d", pr.AppliedBytes, len(fb2))
	}
	pb2, err := os.ReadFile(filepath.Join(pdir, store.LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	if string(fb2[:pr.AppliedBytes]) != string(pb2[:pr.AppliedBytes]) {
		t.Fatalf("follower log is not a primary prefix at the promotion boundary %d", pr.AppliedBytes)
	}

	// The new primary accepts writes immediately.
	put(f.Store(), "after-cutover")

	// Heal: the first epoch-stamped exchange that reaches the old
	// primary fences it. No split-brain: exactly one node takes writes.
	ft.Heal()
	var fenced bool
	for attempt := 0; attempt < 300; attempt++ {
		rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Second)
		rs, err := f.Client().ReplicationStatusContext(rctx)
		rcancel()
		if err == nil && rs.Fenced {
			fenced = true
			break
		}
	}
	if !fenced {
		t.Fatal("old primary never fenced after healing")
	}
	if !nodeA.Fenced() || nodeA.Epoch() != 2 {
		t.Fatalf("old primary state: epoch=%d fenced=%v", nodeA.Epoch(), nodeA.Fenced())
	}
	if code, ec := postWrite(t, srvA.URL); code != http.StatusForbidden || ec != api.CodeFenced {
		t.Fatalf("old primary write after heal = %d/%s", code, ec)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
