// Command provctl is the workflow/provenance CLI:
//
//	provctl validate wf.json              check a workflow specification
//	provctl show wf.json [-format ascii|dot]
//	provctl hash wf.json                  content hash (prospective identity)
//	provctl run wf.json [-store DIR] [-cache] [-shards N] [-durability none|group]
//	provctl query -store DIR [-cache] [-shards N] 'PQL'     query stored provenance
//	provctl lineage -store DIR [-cache] [-shards N] [-trace-rounds] ENTITY  upstream closure of an entity
//	provctl checkpoint -store DIR [-cache] [-shards N]      snapshot folded state next to the log
//	provctl replication -server URL                         a provd's replication role and per-shard positions
//	provctl promote -server URL [-timeout D]                promote a follower to primary (drain, bump epoch, cut over)
//	provctl fence -server URL -epoch N                      show a node an epoch so a stale primary fences itself
//	provctl status -server URL                              a provd's identity: role, epoch, uptime, store config, build
//	provctl metrics -server URL [-grep S]                   a provd's metrics (Prometheus text)
//	provctl metrics -server URL -watch [-interval D]        …polled, printing per-interval deltas
//	provctl watch -server URL -lineage ENTITY               live standing query: snapshot, then +/- deltas
//	provctl watch -server URL -dependents ENTITY            …downstream closure
//	provctl watch -server URL -triple "S P O"               …triple pattern ("*" = wildcard)
//	provctl watch -server URL 'used(E, A), generated(E, B)' …Datalog conjunction [-output A,B] [-poll]
//	provctl export -store DIR -run ID [-format opm-xml|opm-json|dot]
//	provctl demo NAME                     print a built-in workflow as JSON
//	                                      (medimg, medimg-smooth, genomics,
//	                                       forecast, dl-render)
//
// Module implementations come from the built-in workload library; run
// works for any workflow whose module types it registers.
//
// -cache serves closure queries through the incrementally maintained
// closure cache (internal/store/closurecache): repeated lineage/dependents
// queries hit memoized closures, and ingests patch the affected entries in
// place instead of invalidating the cache.
//
// -shards N partitions the store across N shards, each run placed with the
// runs it consumes from (internal/store/shardedstore): with -store DIR the shards are file-backed
// under DIR/shard-000…, otherwise in-memory. A store directory must be
// reopened with the same shard count it was written with — any mismatch is
// rejected loudly. -cache wraps the sharded router unchanged.
//
// -durability selects the write-path guarantee of run's ingest: none (OS
// buffered, the default) or group (write-ahead group commit: concurrent
// appends coalesce into batches sharing one fsync; a lone append is its own
// batch).
//
// checkpoint snapshots the store's folded state (and, with -cache, the
// memoized closures) next to the log, so the next open replays only the
// log suffix past the snapshot and serves warm closures immediately. Each
// provctl process ingests at most one run, so automatic checkpoints live
// in the daemon (provd -checkpoint-every N), not here.
//
// replication queries a running provd's /v1/replication/status: its role
// (standalone, primary or follower), each shard log's committed/applied
// positions and lag, and — on a primary — the probed status of every
// configured replica.
//
// lineage's -trace-rounds prints, for sharded stores, how many pushdown
// rounds the closure executed and each round's frontier probe count, so a
// regression in cross-shard round count is observable outside the bench.
//
// watch registers a standing query on a running provd and follows its
// live delta stream: the initial snapshot prints indented, then each
// ingest that affects the result prints "+ item" / "- item" lines as the
// server folds it in. The stream is SSE with automatic reconnect-and-
// resume (Last-Event-ID); -poll long-polls instead. If the consumer falls
// behind the server's bounded replay buffer, an explicit gap line is
// followed by a fresh snapshot — never a silently stale result. On exit
// the subscription is deleted unless -keep is given.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/collab/api"
	"repro/internal/core"
	"repro/internal/dbprov"
	"repro/internal/opm"
	"repro/internal/query/pql"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
	"repro/internal/vis"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "validate":
		err = cmdValidate(args)
	case "show":
		err = cmdShow(args)
	case "hash":
		err = cmdHash(args)
	case "run":
		err = cmdRun(args)
	case "query":
		err = cmdQuery(args)
	case "lineage":
		err = cmdLineage(args)
	case "checkpoint":
		err = cmdCheckpoint(args)
	case "replication":
		err = cmdReplication(args)
	case "promote":
		err = cmdPromote(args)
	case "fence":
		err = cmdFence(args)
	case "status":
		err = cmdStatus(args)
	case "metrics":
		err = cmdMetrics(args)
	case "watch":
		err = cmdWatch(args)
	case "export":
		err = cmdExport(args)
	case "demo":
		err = cmdDemo(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "provctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: provctl <validate|show|hash|run|query|lineage|checkpoint|replication|promote|fence|status|metrics|watch|export|demo> ...`)
}

func loadWorkflow(path string) (*workflow.Workflow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return workflow.DecodeJSON(data)
}

func cmdValidate(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("validate: want one workflow file")
	}
	wf, err := loadWorkflow(args[0])
	if err != nil {
		return err
	}
	s := wf.Stat()
	fmt.Printf("ok: %s (%d modules, %d connections, depth %d)\n", wf.ID, s.Modules, s.Connections, s.Depth)
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	format := fs.String("format", "ascii", "ascii or dot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("show: want one workflow file")
	}
	wf, err := loadWorkflow(fs.Arg(0))
	if err != nil {
		return err
	}
	switch *format {
	case "ascii":
		text, err := vis.WorkflowASCII(wf)
		if err != nil {
			return err
		}
		fmt.Print(text)
	case "dot":
		fmt.Print(vis.WorkflowDOT(wf))
	default:
		return fmt.Errorf("show: unknown format %q", *format)
	}
	return nil
}

func cmdHash(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("hash: want one workflow file")
	}
	wf, err := loadWorkflow(args[0])
	if err != nil {
		return err
	}
	fmt.Println(wf.ContentHash())
	return nil
}

// storeFlags are the persistent-store options shared by run, query,
// lineage and checkpoint, resolved into core.Options.
type storeFlags struct {
	storeDir   string
	cache      bool
	shards     int
	durability string
	trace      func(shardedstore.ClosureTrace) // -trace-rounds sink (lineage)
}

func (f *storeFlags) register(fs *flag.FlagSet, withWritePath bool) {
	fs.StringVar(&f.storeDir, "store", "", "provenance store directory")
	fs.BoolVar(&f.cache, "cache", false, "serve closures through the incrementally maintained cache (persisted next to the log)")
	fs.IntVar(&f.shards, "shards", 1, "shard count the store directory is (or will be) written with")
	if withWritePath {
		fs.StringVar(&f.durability, "durability", "none", "ingest durability: none or group (group-commit WAL)")
	} else {
		f.durability = "none"
	}
}

func (f *storeFlags) options() (core.Options, error) {
	d, err := store.ParseDurability(f.durability)
	if err != nil {
		return core.Options{}, err
	}
	opt := core.Options{
		StoreDir:           f.storeDir,
		Shards:             f.shards,
		EnableClosureCache: f.cache,
		Durability:         d,
		TraceRounds:        f.trace,
		Agent:              os.Getenv("USER"),
	}
	if err := opt.ValidatePersistence(); err != nil {
		return core.Options{}, err
	}
	return opt, nil
}

func newSystem(f *storeFlags) (*core.System, func(), error) {
	opt, err := f.options()
	if err != nil {
		return nil, nil, err
	}
	var sys *core.System
	cleanup := func() {}
	if f.storeDir != "" {
		var closer func() error
		sys, closer, err = core.NewPersistentSystem(opt)
		if err != nil {
			return nil, nil, err
		}
		cleanup = func() { closer() }
	} else {
		sys = core.NewSystem(opt)
	}
	workloads.RegisterAll(sys.Registry)
	dbprov.RegisterRelationalModules(sys.Registry)
	return sys, cleanup, nil
}

// openStore opens the store for a query-side command — file-backed, sharded
// when requested — optionally wrapped in the incrementally maintained
// closure cache, which restores its persisted snapshot so repeated CLI
// queries start warm.
func openStore(f *storeFlags) (store.Store, func(), error) {
	opt, err := f.options()
	if err != nil {
		return nil, nil, err
	}
	st, closer, err := core.OpenPersistentStore(opt)
	if err != nil {
		return nil, nil, err
	}
	return st, func() { closer() }, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var sf storeFlags
	sf.register(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run: want one workflow file")
	}
	wf, err := loadWorkflow(fs.Arg(0))
	if err != nil {
		return err
	}
	sys, cleanup, err := newSystem(&sf)
	if err != nil {
		return err
	}
	defer cleanup()
	res, log, err := sys.Run(context.Background(), wf, nil)
	if err != nil {
		return err
	}
	fmt.Printf("run %s: status=%s elapsed=%s\n", res.RunID, res.Status, res.Elapsed.Round(1000))
	fmt.Print(vis.RunASCII(log))
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	var sf storeFlags
	sf.register(fs, false)
	explain := fs.Bool("explain", false,
		"print the executed plan to stderr: join order, per-operator rows emitted, scan parallelism, bytes allocated")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || sf.storeDir == "" {
		return fmt.Errorf("query: want -store DIR and one PQL query")
	}
	st, cleanup, err := openStore(&sf)
	if err != nil {
		return err
	}
	defer cleanup()
	if *explain {
		q, err := pql.Parse(fs.Arg(0))
		if err != nil {
			return err
		}
		res, ex, err := pql.ExecuteExplain(st, q)
		if err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, ex.String())
		fmt.Print(res.String())
		return nil
	}
	res, err := pql.Run(st, fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	return nil
}

func cmdLineage(args []string) error {
	fs := flag.NewFlagSet("lineage", flag.ContinueOnError)
	var sf storeFlags
	sf.register(fs, false)
	down := fs.Bool("dependents", false, "downstream instead of upstream")
	traceRounds := fs.Bool("trace-rounds", false,
		"print the sharded closure pushdown's rounds and per-round frontier sizes to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || sf.storeDir == "" {
		return fmt.Errorf("lineage: want -store DIR and one entity ID")
	}
	traced := false
	if *traceRounds {
		sf.trace = func(t shardedstore.ClosureTrace) {
			traced = true
			fmt.Fprintf(os.Stderr, "trace: closure(%s, %s): %d rounds, %d cross-shard crossings, %d nodes, per-round frontier sizes %v\n",
				t.Seed, t.Dir, t.Rounds, t.Crossings, t.Nodes, t.Probes)
		}
	}
	st, cleanup, err := openStore(&sf)
	if err != nil {
		return err
	}
	defer cleanup()
	dir := store.Up
	if *down {
		dir = store.Down
	}
	// Pushed-down closure: the file store answers the whole traversal from
	// its resident adjacency index (memoized when -cache is set; a sharded
	// store runs the per-shard pushdown with frontier exchange).
	ids, err := st.Closure(fs.Arg(0), dir)
	if err != nil {
		return err
	}
	if *traceRounds && !traced {
		fmt.Fprintln(os.Stderr, "trace: no pushdown rounds executed (unsharded store, or served warm by the closure cache)")
	}
	for _, id := range ids {
		fmt.Println(id)
	}
	return nil
}

// cmdCheckpoint snapshots a store directory's folded state (and, with
// -cache, the closure cache's entries) next to its log, so the next open
// replays only the log suffix written after this point.
func cmdCheckpoint(args []string) error {
	fs := flag.NewFlagSet("checkpoint", flag.ContinueOnError)
	var sf storeFlags
	sf.register(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 || sf.storeDir == "" {
		return fmt.Errorf("checkpoint: want -store DIR (plus -shards N for sharded stores)")
	}
	st, cleanup, err := openStore(&sf)
	if err != nil {
		return err
	}
	defer cleanup()
	if err := st.Checkpoint(); err != nil {
		return err
	}
	stats, err := st.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint written: %d runs, %d events, %d log bytes covered\n",
		stats.Runs, stats.Events, stats.Bytes)
	return nil
}

// cmdReplication prints a running provd's replication status: role,
// per-shard log positions, and (on a primary) each probed replica.
func cmdReplication(args []string) error {
	fs := flag.NewFlagSet("replication", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8080", "provd base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("replication: want -server URL only")
	}
	rs, err := api.NewClient(*server, nil).ReplicationStatus()
	if err != nil {
		return err
	}
	printReplicationStatus(os.Stdout, rs, "")
	return nil
}

// cmdPromote asks a follower to take over as primary: drain what it can
// reach of the upstream log, bump the fencing epoch, drop read-only and
// begin shipping its own log. See the README's failover runbook.
func cmdPromote(args []string) error {
	fs := flag.NewFlagSet("promote", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8080", "the follower provd to promote")
	timeout := fs.Duration("timeout", 30*time.Second, "bound on the drain + cutover")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("promote: want -server URL only")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	// The drain can legitimately outlast the client default timeout, so
	// bound the whole call by -timeout instead.
	pr, err := api.NewClient(*server, &http.Client{Timeout: *timeout}).Promote(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("promoted: role %s, epoch %d, %d bytes applied\n", pr.Role, pr.Epoch, pr.AppliedBytes)
	if pr.DrainErr != "" {
		fmt.Printf("drain incomplete: %s\n  (writes the old primary acked past the replication boundary stayed there)\n", pr.DrainErr)
	}
	switch {
	case pr.OldPrimaryFenced:
		fmt.Println("old primary: fenced read-only")
	case pr.FenceErr != "":
		fmt.Printf("old primary: not confirmed fenced (%s)\n  it fences itself on the first epoch-stamped request it serves; run\n  `provctl fence -server OLD_PRIMARY -epoch %d` once it is reachable\n", pr.FenceErr, pr.Epoch)
	}
	return nil
}

// cmdFence shows a node a fencing epoch (typically the one `promote`
// printed): a lower-epoch unfenced primary demotes itself read-only on
// observing it — the cleanup step for a primary that was unreachable
// during promotion.
func cmdFence(args []string) error {
	fs := flag.NewFlagSet("fence", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8080", "the provd to show the epoch to (the old primary)")
	epoch := fs.Uint64("epoch", 0, "the fencing epoch to present (from `provctl promote` or the new primary's status)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 || *epoch == 0 {
		return fmt.Errorf("fence: want -server URL and -epoch N (N ≥ 1)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rs, err := api.NewClient(*server, nil).Fence(ctx, *epoch)
	if err != nil {
		return err
	}
	switch {
	case rs.Fenced:
		fmt.Printf("fenced: node is read-only at epoch %d\n", rs.Epoch)
	case rs.Role == api.RoleFollower:
		fmt.Printf("node is a follower at epoch %d (nothing to fence)\n", rs.Epoch)
	default:
		fmt.Printf("node reports role %s, epoch %d, not fenced\n", rs.Role, rs.Epoch)
	}
	return nil
}

func printReplicationStatus(w io.Writer, rs *api.ReplicationStatus, indent string) {
	topo := "unsharded"
	if rs.Sharded {
		topo = fmt.Sprintf("%d shards", len(rs.Shards))
	}
	role := rs.Role
	if rs.Epoch > 0 {
		role = fmt.Sprintf("%s, epoch %d", role, rs.Epoch)
	}
	if rs.Fenced {
		role += ", FENCED"
	}
	fmt.Fprintf(w, "%srole: %s (%s)\n", indent, role, topo)
	if rs.Primary != "" {
		fmt.Fprintf(w, "%sprimary: %s\n", indent, rs.Primary)
	}
	for _, sp := range rs.Shards {
		ck := "none"
		if sp.Checkpoint >= 0 {
			ck = fmt.Sprintf("%d", sp.Checkpoint)
		}
		fmt.Fprintf(w, "%sshard %d: committed %d, applied %d, lag %d, checkpoint %s\n",
			indent, sp.Shard, sp.Committed, sp.Applied, sp.Lag, ck)
	}
	for _, p := range rs.Replicas {
		switch {
		case p.Error != "":
			fmt.Fprintf(w, "%sreplica %s: unreachable: %s\n", indent, p.URL, p.Error)
		case p.Status != nil:
			fmt.Fprintf(w, "%sreplica %s:\n", indent, p.URL)
			printReplicationStatus(w, p.Status, indent+"  ")
		default:
			fmt.Fprintf(w, "%sreplica %s: not probed\n", indent, p.URL)
		}
	}
}

func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8080", "provd base URL")
	lineage := fs.String("lineage", "", "watch the upstream closure of this entity")
	dependents := fs.String("dependents", "", "watch the downstream closure of this entity")
	triple := fs.String("triple", "", `watch a triple pattern: "S P O" ("*" = wildcard)`)
	output := fs.String("output", "", "conjunctive watch: comma-separated output variables (default: all)")
	poll := fs.Bool("poll", false, "long-poll for events instead of streaming SSE")
	keep := fs.Bool("keep", false, "leave the subscription registered on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var req api.SubscribeRequest
	switch {
	case *lineage != "":
		req = api.SubscribeRequest{Kind: api.SubscriptionKindClosure, Root: *lineage, Direction: "up"}
	case *dependents != "":
		req = api.SubscribeRequest{Kind: api.SubscriptionKindClosure, Root: *dependents, Direction: "down"}
	case *triple != "":
		f := strings.Fields(*triple)
		if len(f) != 3 {
			return fmt.Errorf(`watch: -triple wants "S P O" (three fields, "*" = wildcard)`)
		}
		for i := range f {
			if f[i] == "*" {
				f[i] = ""
			}
		}
		req = api.SubscribeRequest{Kind: api.SubscriptionKindTriple, Subject: f[0], Predicate: f[1], Object: f[2]}
	case fs.NArg() == 1:
		req = api.SubscribeRequest{Kind: api.SubscriptionKindConjunctive, Query: fs.Arg(0)}
		if *output != "" {
			req.Output = strings.Split(*output, ",")
			for i := range req.Output {
				req.Output[i] = strings.TrimSpace(req.Output[i])
			}
		}
	default:
		return fmt.Errorf("watch: want -lineage ENTITY, -dependents ENTITY, -triple \"S P O\", or one Datalog conjunction")
	}

	c := api.NewClient(*server, nil)
	sub, err := c.Subscribe(req)
	if err != nil {
		return err
	}
	fmt.Printf("subscribed %s: %d item(s)\n", sub.ID, len(sub.Items))
	for _, it := range sub.Items {
		fmt.Println("  " + it)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if !*keep {
		defer c.Unsubscribe(sub.ID)
	}

	printEvent := func(ev api.SubscriptionEvent) error {
		switch ev.Type {
		case api.SubscriptionEventAdd:
			for _, it := range ev.Items {
				fmt.Println("+ " + it)
			}
		case api.SubscriptionEventRemove:
			for _, it := range ev.Items {
				fmt.Println("- " + it)
			}
		case api.SubscriptionEventGap:
			fmt.Println("! gap: fell behind the replay buffer; re-snapshot follows")
		case api.SubscriptionEventSnapshot:
			fmt.Printf("= snapshot: %d item(s)\n", len(ev.Items))
			for _, it := range ev.Items {
				fmt.Println("  " + it)
			}
		}
		return nil
	}

	from := sub.Seq
	if *poll {
		for ctx.Err() == nil {
			evs, err := c.PollSubscriptionEvents(sub.ID, from, 10*time.Second)
			if err != nil {
				if ctx.Err() != nil {
					break
				}
				return err
			}
			for _, ev := range evs {
				_ = printEvent(ev)
				from = ev.Seq
			}
		}
		return nil
	}
	attempt := 0
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for ctx.Err() == nil {
		last, err := c.WatchSubscription(ctx, sub.ID, from, printEvent)
		if last > from {
			attempt = 0 // the connection made progress; start backoff over
		}
		from = last
		if ctx.Err() != nil {
			break
		}
		var rerr *api.RemoteError
		if errors.As(err, &rerr) {
			return err // e.g. the subscription was deleted server-side
		}
		// Transient drop or server restart: resume after the last sequence
		// we saw (the server answers an eviction with gap + re-snapshot),
		// under capped jittered backoff so a dead server is probed gently
		// and a restarted fleet is not reconnected to in lockstep.
		attempt++
		delay := watchBackoff(attempt, rng.Float64())
		if err != nil {
			fmt.Fprintf(os.Stderr, "provctl: watch: %v (reconnecting in %s)\n", err, delay.Round(10*time.Millisecond))
		}
		select {
		case <-ctx.Done():
		case <-time.After(delay):
		}
	}
	return nil
}

// Watch reconnect backoff bounds: doubling from the base per
// consecutive failed attempt, capped, with ±25% jitter.
const (
	watchBackoffBase = 500 * time.Millisecond
	watchBackoffMax  = 15 * time.Second
)

// watchBackoff returns the reconnect delay before the attempt-th
// consecutive retry (1-based). jitter is a uniform draw in [0,1);
// the result is the exponential delay scaled into [75%, 125%).
func watchBackoff(attempt int, jitter float64) time.Duration {
	d := watchBackoffBase
	for i := 1; i < attempt && d < watchBackoffMax; i++ {
		d *= 2
	}
	if d > watchBackoffMax {
		d = watchBackoffMax
	}
	return time.Duration(float64(d) * (0.75 + jitter/2))
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	storeDir := fs.String("store", "", "provenance store directory")
	runID := fs.String("run", "", "run ID to export")
	format := fs.String("format", "opm-xml", "opm-xml, opm-json or dot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" || *runID == "" {
		return fmt.Errorf("export: want -store DIR and -run ID")
	}
	fsStore, err := store.OpenFileStore(*storeDir)
	if err != nil {
		return err
	}
	defer fsStore.Close()
	l, err := fsStore.RunLog(*runID)
	if err != nil {
		return err
	}
	switch *format {
	case "dot":
		text, err := vis.ProvenanceDOT(l)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	case "opm-xml", "opm-json":
		g, err := opm.FromRunLog(l, "provctl")
		if err != nil {
			return err
		}
		var data []byte
		if *format == "opm-xml" {
			data, err = opm.EncodeXML(g)
		} else {
			data, err = opm.EncodeJSON(g)
		}
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	return fmt.Errorf("export: unknown format %q", *format)
}

func cmdDemo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("demo: want a workflow name (medimg, medimg-smooth, genomics, forecast, dl-render)")
	}
	var wf *workflow.Workflow
	switch args[0] {
	case "medimg":
		wf = workloads.MedicalImaging()
	case "medimg-smooth":
		wf = workloads.SmoothedImaging()
	case "genomics":
		wf = workloads.Genomics("sample-1")
	case "forecast":
		wf = workloads.Forecasting("station-A")
	case "dl-render":
		wf = workloads.DownloadAndRender()
	default:
		return fmt.Errorf("demo: unknown workflow %q", args[0])
	}
	data, err := workflow.EncodeJSON(wf)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// cmdStatus prints a provd's identity block from /v1/status: role, uptime,
// store configuration and the binary's embedded build info.
func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8080", "provd base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("status: want -server URL only")
	}
	ns, err := api.NewClient(*server, nil).NodeStatus()
	if err != nil {
		return err
	}
	role := ns.Role
	if ns.Fenced {
		role += " (FENCED: a higher-epoch primary exists)"
	}
	fmt.Printf("role: %s\n", role)
	if ns.Epoch > 0 {
		fmt.Printf("epoch: %d\n", ns.Epoch)
	}
	if ns.ReplicaState != "" {
		fmt.Printf("replication: %s, %d bytes behind the primary\n", ns.ReplicaState, ns.ReplicaLagBytes)
	}
	fmt.Printf("uptime: %s\n", (time.Duration(ns.UptimeSeconds * float64(time.Second))).Round(time.Second))
	if ns.StoreDir != "" {
		fmt.Printf("store: %s\n", ns.StoreDir)
	} else {
		fmt.Println("store: in-memory")
	}
	fmt.Printf("shards: %d\n", ns.Shards)
	if ns.Durability != "" {
		fmt.Printf("durability: %s\n", ns.Durability)
	}
	if ns.Checkpoint != "" {
		fmt.Printf("checkpoint: %s\n", ns.Checkpoint)
	}
	fmt.Printf("closure cache: %v\n", ns.ClosureCache)
	build := ns.GoVersion
	if ns.Version != "" {
		build += " " + ns.Version
	}
	if ns.Revision != "" {
		build += " (" + ns.Revision + ")"
	}
	fmt.Printf("build: %s\n", build)
	return nil
}

// cmdMetrics fetches /v1/metrics. One-shot mode prints the Prometheus
// exposition verbatim (optionally filtered); -watch polls and prints only
// the series whose values changed since the previous poll, as
// "name{labels} value (delta)" — a poor man's rate() for a terminal.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8080", "provd base URL")
	watch := fs.Bool("watch", false, "poll repeatedly, printing per-interval deltas of changed series")
	interval := fs.Duration("interval", 2*time.Second, "poll interval with -watch")
	grep := fs.String("grep", "", "only print series whose name contains this substring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("metrics: unexpected arguments %v", fs.Args())
	}
	client := api.NewClient(*server, nil)

	if !*watch {
		text, err := client.MetricsText()
		if err != nil {
			return err
		}
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			if *grep != "" && !strings.Contains(metricName(line), *grep) {
				continue
			}
			fmt.Println(line)
		}
		return nil
	}

	prev, err := scrapeSeries(client, *grep)
	if err != nil {
		return err
	}
	for {
		time.Sleep(*interval)
		cur, err := scrapeSeries(client, *grep)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(cur))
		for name, v := range cur {
			if pv, ok := prev[name]; !ok || pv != v {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		fmt.Printf("--- %s\n", time.Now().Format("15:04:05"))
		for _, name := range names {
			if pv, ok := prev[name]; ok {
				fmt.Printf("%s %s (%+g)\n", name, strconv.FormatFloat(cur[name], 'g', -1, 64), cur[name]-pv)
			} else {
				fmt.Printf("%s %s (new)\n", name, strconv.FormatFloat(cur[name], 'g', -1, 64))
			}
		}
		prev = cur
	}
}

// metricName extracts the metric name an exposition line is about — the
// third field of a "# HELP name …"/"# TYPE name …" comment, or the series
// name up to its label set — so -grep filters families, comments included.
func metricName(line string) string {
	if strings.HasPrefix(line, "#") {
		if f := strings.Fields(line); len(f) >= 3 {
			return f[2]
		}
		return ""
	}
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		return line[:i]
	}
	return line
}

// scrapeSeries fetches and parses one exposition into series → value,
// keeping only series whose metric name contains grep (when non-empty).
func scrapeSeries(client *api.Client, grep string) (map[string]float64, error) {
	text, err := client.MetricsText()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, val := line[:sp], line[sp+1:]
		if grep != "" && !strings.Contains(name, grep) {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] = f
	}
	return out, nil
}
