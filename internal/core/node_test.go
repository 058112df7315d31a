package core

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/collab"
	"repro/internal/collab/api"
	"repro/internal/provenance"
	"repro/internal/query/standing"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
	"repro/internal/workloads"
)

// nodeRun is a one-execution run consuming in (when set) and generating
// id+"-art".
func nodeRun(id, in string) *provenance.RunLog {
	exec, out := id+"-exec", id+"-art"
	l := &provenance.RunLog{
		Run:        provenance.Run{ID: id, WorkflowID: "wf", Status: provenance.StatusOK},
		Executions: []*provenance.Execution{{ID: exec, RunID: id, ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}},
		Artifacts:  []*provenance.Artifact{{ID: out, RunID: id, Type: "blob"}},
	}
	if in != "" {
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: in, RunID: id, Type: "blob"})
		l.Events = append(l.Events, provenance.Event{Seq: 1, RunID: id, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: in})
	}
	l.Events = append(l.Events, provenance.Event{Seq: uint64(len(l.Events) + 1), RunID: id, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out})
	return l
}

func openTestNode(t *testing.T, opt Options) *Node {
	t.Helper()
	n, err := OpenNode(opt)
	if err != nil {
		t.Fatalf("OpenNode(%+v): %v", opt, err)
	}
	t.Cleanup(func() {
		if err := n.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return n
}

func serveNode(t *testing.T, n *Node) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(collab.NewHandlerWith(collab.NewRepository(n.Store), n.HandlerOptions(collab.HandlerOptions{})))
	t.Cleanup(srv.Close)
	return srv
}

// watchRoot subscribes to root's dependents on n and, with a cache,
// warms the cached closure of the same key.
func watchRoot(t *testing.T, n *Node, root string) string {
	t.Helper()
	snap, err := n.Standing.Subscribe(standing.Spec{Kind: standing.KindClosure, Root: root, Dir: store.Down})
	if err != nil {
		t.Fatal(err)
	}
	if n.Cache != nil {
		if _, err := n.Cache.Closure(root, store.Down); err != nil {
			t.Fatal(err)
		}
	}
	return snap.ID
}

// reached reports whether art has reached n's closure subscription and,
// with a cache, the warm cached closure of root — served as a hit.
func reached(t *testing.T, n *Node, sub, root, art string) bool {
	t.Helper()
	evs, ok := n.Standing.EventsSince(sub, 0)
	if !ok {
		t.Fatalf("subscription %s vanished", sub)
	}
	added := false
	for _, ev := range evs {
		added = added || (ev.Type == standing.EventAdd && slices.Contains(ev.Items, art))
	}
	if !added || n.Cache == nil {
		return added
	}
	hits := n.Cache.Metrics().ClosureHits
	got, err := n.Cache.Closure(root, store.Down)
	if err != nil {
		t.Fatal(err)
	}
	if n.Cache.Metrics().ClosureHits != hits+1 {
		t.Fatalf("closure of %s was not served warm", root)
	}
	return slices.Contains(got, art)
}

// TestOpenNodeRoles builds every provd role through OpenNode and follows
// one published run into the derived state: the closure subscription
// and, with a cache, the warm cached closure. A follower's run arrives by
// replication from the 4-shard primary.
func TestOpenNodeRoles(t *testing.T) {
	primaryDir := t.TempDir()
	roles := []struct {
		name string
		opt  Options
	}{
		{"mem-1", Options{}},
		{"mem-1-cache", Options{EnableClosureCache: true}},
		{"mem-4", Options{Shards: 4}},
		{"mem-4-cache", Options{Shards: 4, EnableClosureCache: true}},
		{"file", Options{StoreDir: t.TempDir()}},
		{"primary-4-cache", Options{Role: api.RolePrimary, StoreDir: primaryDir, Shards: 4, EnableClosureCache: true, Durability: store.DurabilityGroup}},
	}
	var primary *Node
	for _, r := range roles {
		n := openTestNode(t, r.opt) // the primary outlives its subtest
		t.Run(r.name, func(t *testing.T) {
			if err := n.Store.PutRunLog(nodeRun("r0", "")); err != nil {
				t.Fatal(err)
			}
			sub := watchRoot(t, n, "r0-art")
			if err := n.Store.PutRunLog(nodeRun("r1", "r0-art")); err != nil {
				t.Fatal(err)
			}
			if !reached(t, n, sub, "r0-art", "r1-art") {
				t.Fatal("published run did not reach the subscription and cached closure")
			}
			if (r.opt.Role == api.RolePrimary) != (n.Failover != nil && n.Source != nil) {
				t.Fatalf("role %q: failover %v, source %v", r.opt.Role, n.Failover, n.Source)
			}
			if r.opt.Role == api.RolePrimary {
				primary = n
			}
		})
	}
	if primary == nil {
		t.Fatal("the primary did not open")
	}

	t.Run("follower", func(t *testing.T) {
		psrv := serveNode(t, primary)
		f := openTestNode(t, Options{
			Role: api.RoleFollower, StoreDir: t.TempDir(), Primary: psrv.URL,
			ReplicaPoll: 5 * time.Millisecond, EnableClosureCache: true,
		})
		if f.Follower == nil || f.Failover == nil || f.Source == nil || f.Cache == nil {
			t.Fatalf("follower node is missing a part: %+v", f)
		}
		if err := f.Follower.CatchUp(); err != nil {
			t.Fatal(err)
		}
		sub := watchRoot(t, f, "r1-art")
		if err := primary.Store.PutRunLog(nodeRun("r2", "r1-art")); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); !reached(t, f, sub, "r1-art", "r2-art"); {
			if time.Now().After(deadline) {
				t.Fatal("replicated run did not reach the follower's subscription and cached closure")
			}
			time.Sleep(5 * time.Millisecond)
		}

		fsrv := serveNode(t, f)
		resp, err := http.Post(fsrv.URL+"/v1/workflows", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		var env api.Error
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusForbidden || env.Code != api.CodeReadOnlyReplica {
			t.Fatalf("follower write = %d %+v (%v), want 403 %s", resp.StatusCode, env, err, api.CodeReadOnlyReplica)
		}
		if resp.Header.Get(api.HeaderReplicaApplied) == "" || resp.Header.Get(api.HeaderReplicaLag) == "" {
			t.Fatalf("follower response lacks the lag headers: %v", resp.Header)
		}
		c := api.NewClient(fsrv.URL, nil)
		rs, err := c.ReplicationStatus()
		if err != nil || rs.Role != api.RoleFollower || len(rs.Shards) != 4 || rs.Epoch == 0 {
			t.Fatalf("follower replication status = %+v, %v", rs, err)
		}
		prs, err := api.NewClient(psrv.URL, nil).ReplicationStatus()
		if err != nil || prs.Role != api.RolePrimary || len(prs.Shards) != 4 || prs.Epoch != rs.Epoch {
			t.Fatalf("primary replication status = %+v, %v", prs, err)
		}
	})
}

// TestNewSystemTracesShardedMemRounds: TraceRounds reaches an in-memory
// router too, not only a file-backed one.
func TestNewSystemTracesShardedMemRounds(t *testing.T) {
	var rounds int
	s := NewSystem(Options{Shards: 4, TraceRounds: func(tr shardedstore.ClosureTrace) { rounds += tr.Rounds }})
	workloads.RegisterAll(s.Registry)
	res, _, err := s.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lineage(res.Artifacts["render.image"]); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("a sharded in-memory lineage reported no rounds")
	}
}

// TestValidateRefusesIgnoredReplicationOptions: each of these provd flag
// sets used to start a node that silently dropped a flag — a -primary
// without -role follower even started a writable standalone node.
func TestValidateRefusesIgnoredReplicationOptions(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		opt  Options
	}{
		{"primary-url-standalone", Options{StoreDir: dir, Primary: "http://p:8080"}},
		{"primary-url-on-primary", Options{Role: api.RolePrimary, StoreDir: dir, Primary: "http://p:8080"}},
		{"replica-poll-standalone", Options{StoreDir: dir, ReplicaPoll: time.Second}},
		{"max-lag-on-primary", Options{Role: api.RolePrimary, StoreDir: dir, MaxLagBytes: 1 << 20}},
		{"replicas-standalone", Options{StoreDir: dir, Replicas: []string{"http://r:8081"}}},
		{"replicas-on-follower", Options{Role: api.RoleFollower, StoreDir: dir, Primary: "http://p:8080", Replicas: []string{"http://r:8081"}}},
	} {
		if err := c.opt.ValidatePersistence(); err == nil {
			t.Errorf("%s: %+v passed validation", c.name, c.opt)
		}
	}
	for _, opt := range []Options{
		{},
		{Role: api.RoleStandalone, StoreDir: dir},
		{Role: api.RolePrimary, StoreDir: dir, Replicas: []string{"http://r:8081"}},
		{Role: api.RoleFollower, StoreDir: dir, Primary: "http://p:8080", ReplicaPoll: time.Second, MaxLagBytes: 1 << 20},
	} {
		if err := opt.ValidatePersistence(); err != nil {
			t.Errorf("%+v rejected: %v", opt, err)
		}
	}
}

// TestStatusCheckpointPolicy: /v1/status reports the node's one automatic
// checkpoint trigger as OpenNode configured it.
func TestStatusCheckpointPolicy(t *testing.T) {
	for every, want := range map[int]string{64: "every 64 runs", 0: "disabled"} {
		n := openTestNode(t, Options{StoreDir: t.TempDir(), CheckpointEvery: every})
		if got := n.HandlerOptions(collab.HandlerOptions{}).Node.Checkpoint; got != want {
			t.Errorf("CheckpointEvery %d: status checkpoint %q, want %q", every, got, want)
		}
	}
}
