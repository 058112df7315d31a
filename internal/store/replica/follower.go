package replica

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/collab/api"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
)

// Follower observability: shipped volume and apply latency accumulate
// across catch-up and steady-state tailing alike (catch-up throughput is
// shipped bytes over the catch-up window). The lag and health gauges are
// registered per-Follower in Open and report the most recent instance.
var (
	mReplShippedBytes = obs.Default().Counter("prov_replica_shipped_bytes_total", "Log bytes shipped from the primary and applied.")
	mReplShippedRecs  = obs.Default().Counter("prov_replica_shipped_records_total", "Run-log records applied from shipped chunks.")
	mReplApplySecs    = obs.Default().Histogram("prov_replica_apply_seconds", "Per-chunk apply latency (decode, verify, fold).")
	mReplRetries      = obs.Default().Counter("prov_replica_retries_total", "Failed follower→primary exchanges retried under backoff.")
)

// Options configures a follower.
type Options struct {
	// Dir is the local store directory (bootstrapped from the primary
	// when empty, resumed when it already holds a replica).
	Dir string
	// Primary is the primary provd's base URL.
	Primary string
	// Client overrides the HTTP client (nil: the api package default —
	// per-request timeouts come from contexts, so streaming stays
	// unbounded there).
	Client *http.Client
	// Store configures the local store: the follower's own durability
	// and checkpoint policy, independent of the primary's (a replica
	// that can re-stream after a crash often runs DurabilityNone).
	Store store.FileOptions
	// Poll is the steady-state tail interval of the background shipper
	// (Start); default 200ms. After a failure the interval backs off
	// exponentially with jitter up to MaxBackoff, returning to Poll on
	// the first success.
	Poll time.Duration
	// MaxBackoff caps the jittered exponential backoff between failed
	// polls (0: 5s). Health reports disconnected instead of degraded
	// after 10×MaxBackoff without a successful primary exchange.
	MaxBackoff time.Duration
	// RequestTimeout bounds each individual follower→primary call
	// (0: 10s). A hung primary costs one timeout, not a stuck shipper.
	RequestTimeout time.Duration
	// BackoffSeed seeds the backoff jitter; 0 draws from the global
	// source. Tests pin it for reproducible schedules.
	BackoffSeed int64
	// MaxBatchBytes caps one shipped chunk (0: 1 MiB).
	MaxBatchBytes int
}

// Follower is a read replica: a local store kept an exact prefix of the
// primary's log(s) by streaming committed WAL chunks over the v1 API.
// Reads go straight to Store(); writes belong on the primary.
type Follower struct {
	opt    Options
	client *api.Client

	sharded bool
	st      store.Store
	router  *shardedstore.Router
	shards  []*store.FileStore

	baseCtx    context.Context // cancelled by Stop; parent of every request ctx
	baseCancel context.CancelFunc

	mu               sync.Mutex
	observers        []func(*provenance.RunLog) // append-only, see Observe
	primaryCommitted []int64                    // last-seen primary committed size per shard
	lastErr          error                      // most recent shipper failure (transient; retried)
	consecFails      int                        // failed exchanges since the last success
	lastContact      time.Time
	rng              *rand.Rand // jitter source, guarded by mu

	shardMu []sync.Mutex // serializes appliers per shard (CatchUp vs tailer)

	started  bool
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Open connects to the primary, bootstraps any empty local shards from
// its checkpoints and logs, opens the local store, and returns a
// follower positioned at its local committed offset. It does not start
// the background shipper — call Start, or drive catch-up explicitly
// with CatchUp.
func Open(opt Options) (*Follower, error) {
	if opt.Dir == "" {
		return nil, errors.New("replica: follower needs a store directory")
	}
	if opt.Primary == "" {
		return nil, errors.New("replica: follower needs a primary URL")
	}
	if opt.Poll <= 0 {
		opt.Poll = 200 * time.Millisecond
	}
	if opt.MaxBackoff <= 0 {
		opt.MaxBackoff = 5 * time.Second
	}
	if opt.RequestTimeout <= 0 {
		opt.RequestTimeout = 10 * time.Second
	}
	if opt.MaxBatchBytes <= 0 {
		opt.MaxBatchBytes = 1 << 20
	}
	seed := opt.BackoffSeed
	if seed == 0 {
		seed = rand.Int63()
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	client := api.NewClient(opt.Primary, opt.Client)
	ctx, cancel := context.WithTimeout(baseCtx, opt.RequestTimeout)
	rs, err := client.ReplicationStatusContext(ctx)
	cancel()
	if err != nil {
		baseCancel()
		return nil, fmt.Errorf("replica: primary %s status: %w", opt.Primary, err)
	}
	n := len(rs.Shards)
	if n == 0 {
		baseCancel()
		return nil, fmt.Errorf("replica: primary %s (role %s) reports no replicable shards", opt.Primary, rs.Role)
	}

	// Bootstrap fresh shard directories before opening the store:
	// checkpoint snapshot first (its LogOffset is <= any committed size
	// we stream afterwards), then the log bytes, so the subsequent open
	// restores indexes from the snapshot and replays only the suffix.
	for i := 0; i < n; i++ {
		dir := opt.Dir
		if rs.Sharded {
			dir = filepath.Join(opt.Dir, fmt.Sprintf("shard-%03d", i))
		}
		if err := bootstrapShard(baseCtx, client, i, dir, opt.MaxBatchBytes, opt.RequestTimeout); err != nil {
			baseCancel()
			return nil, err
		}
	}

	f := &Follower{
		opt:              opt,
		client:           client,
		sharded:          rs.Sharded,
		baseCtx:          baseCtx,
		baseCancel:       baseCancel,
		primaryCommitted: make([]int64, n),
		lastContact:      time.Now(),
		rng:              rand.New(rand.NewSource(seed)),
		shardMu:          make([]sync.Mutex, n),
		stop:             make(chan struct{}),
	}
	for i, sp := range rs.Shards {
		f.primaryCommitted[i] = sp.Committed
	}
	if rs.Sharded {
		r, err := shardedstore.OpenWith(opt.Dir, n, opt.Store)
		if err != nil {
			baseCancel()
			return nil, fmt.Errorf("replica: open follower store: %w", err)
		}
		f.router, f.st = r, r
		for i := 0; i < n; i++ {
			fs, err := r.FileShard(i)
			if err != nil {
				r.Close()
				baseCancel()
				return nil, err
			}
			f.shards = append(f.shards, fs)
		}
	} else {
		fs, err := store.OpenFileStoreWith(opt.Dir, opt.Store)
		if err != nil {
			baseCancel()
			return nil, fmt.Errorf("replica: open follower store: %w", err)
		}
		f.st, f.shards = fs, []*store.FileStore{fs}
	}
	// GaugeFunc re-registration replaces the callback, so these series
	// always track the most recently opened follower in this process. Lag
	// and health read only in-memory positions, so scraping after Close
	// stays safe.
	obs.Default().GaugeFunc("prov_replica_apply_lag_bytes",
		"Bytes the follower trails the primary's committed position by.",
		func() float64 {
			_, behind := f.Lag()
			return float64(behind)
		})
	obs.Default().GaugeFunc("prov_replica_health",
		"Follower upstream health: 0 connected, 1 degraded, 2 disconnected.",
		func() float64 {
			switch f.Health().State {
			case api.HealthConnected:
				return 0
			case api.HealthDegraded:
				return 1
			default:
				return 2
			}
		})
	return f, nil
}

// bootstrapShard seeds an empty local shard directory with the
// primary's checkpoint snapshot and a bulk copy of its committed log.
// Directories that already hold log bytes are left alone: the store
// open heals any torn tail and the shipper resumes from the local
// committed size.
func bootstrapShard(baseCtx context.Context, c *api.Client, shard int, dir string, maxBatch int, reqTimeout time.Duration) error {
	logPath := filepath.Join(dir, store.LogFileName)
	if fi, err := os.Stat(logPath); err == nil && fi.Size() > 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("replica: bootstrap shard %d: %w", shard, err)
	}
	ctx, cancel := context.WithTimeout(baseCtx, reqTimeout)
	ck, ok, err := c.ShardCheckpointContext(ctx, shard)
	cancel()
	if err != nil {
		return fmt.Errorf("replica: bootstrap shard %d checkpoint: %w", shard, err)
	}
	if ok {
		if err := os.WriteFile(store.CheckpointPath(dir), ck, 0o644); err != nil {
			return fmt.Errorf("replica: bootstrap shard %d checkpoint: %w", shard, err)
		}
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("replica: bootstrap shard %d log: %w", shard, err)
	}
	defer logFile.Close()
	var at int64
	for {
		ctx, cancel := context.WithTimeout(baseCtx, reqTimeout)
		chunk, committed, err := c.StreamLogContext(ctx, shard, at, maxBatch)
		cancel()
		if err != nil {
			return fmt.Errorf("replica: bootstrap shard %d stream: %w", shard, err)
		}
		if len(chunk) == 0 {
			if at < committed {
				return fmt.Errorf("replica: bootstrap shard %d: empty chunk at %d below committed %d", shard, at, committed)
			}
			return nil
		}
		if _, err := logFile.Write(chunk); err != nil {
			return fmt.Errorf("replica: bootstrap shard %d log: %w", shard, err)
		}
		// Bootstrap bytes are shipped traffic too; the records they carry
		// are only counted once the store replays them on open, so the
		// record counter stays with the apply path.
		mReplShippedBytes.Add(uint64(len(chunk)))
		at += int64(len(chunk))
	}
}

// Store returns the follower's local store; queries against it see
// exactly the applied primary prefix.
func (f *Follower) Store() store.Store { return f.st }

// Sharded reports whether the replicated store is a sharded router.
func (f *Follower) Sharded() bool { return f.sharded }

// Client returns the follower's primary-facing API client — the epoch
// it has observed there is the fleet's, which promotion builds on.
func (f *Follower) Client() *api.Client { return f.client }

// Observe registers fn to see every replicated run log after it folds
// into the store: the one way derived state above the store — the closure
// cache's delta patch (closurecache.(*Cache).ApplyDelta), standing-query
// subscriptions (standing.(*Manager).ApplyDelta) — learns of runs that
// arrive by replication rather than through PutRunLog. Observers are only
// ever added, and run in registration order on the applying goroutine,
// one shard's runs in that shard's log order: register a layer before the
// layers that read through it (the cache before the manager). An observer
// sees the runs applied after it registers, before or after Start.
func (f *Follower) Observe(fn func(*provenance.RunLog)) {
	f.mu.Lock()
	f.observers = append(f.observers, fn)
	f.mu.Unlock()
}

// CatchUp streams and applies every shard to the primary's committed
// position as of this call, synchronously. Tests and benchmarks use it for
// deterministic convergence; production followers run Start instead.
func (f *Follower) CatchUp() error {
	return f.CatchUpContext(context.Background())
}

// CatchUpContext is CatchUp bounded by ctx — the promotion drain uses a
// deadline so an unreachable primary cannot stall cutover.
func (f *Follower) CatchUpContext(ctx context.Context) error {
	for i := range f.shards {
		if err := f.catchUpShard(ctx, i); err != nil {
			return err
		}
	}
	return nil
}

// catchUpShard applies one shard until it reaches the primary's
// committed position observed at loop entry (later appends belong to
// the next poll). The per-shard lock serializes concurrent appliers —
// a CatchUp racing the background tailer must not both apply the same
// offset.
func (f *Follower) catchUpShard(ctx context.Context, i int) error {
	f.shardMu[i].Lock()
	defer f.shardMu[i].Unlock()
	for {
		from := f.shards[i].CommittedOffset()
		reqCtx, cancel := context.WithTimeout(ctx, f.opt.RequestTimeout)
		data, committed, err := f.client.StreamLogContext(reqCtx, i, from, f.opt.MaxBatchBytes)
		cancel()
		if err != nil {
			f.noteErr(err)
			return err
		}
		f.mu.Lock()
		f.primaryCommitted[i] = committed
		f.mu.Unlock()
		if len(data) == 0 {
			if from < committed {
				err := fmt.Errorf("replica: shard %d: empty chunk at %d below committed %d", i, from, committed)
				f.noteErr(err)
				return err
			}
			f.noteErr(nil)
			return nil
		}
		var logs []*provenance.RunLog
		applyStart := obs.Now()
		if f.router != nil {
			logs, _, err = f.router.ApplyReplicated(i, data)
		} else {
			logs, _, err = f.shards[i].ApplyReplicated(data)
		}
		if err != nil {
			f.noteErr(err)
			return err
		}
		mReplApplySecs.ObserveSince(applyStart)
		mReplShippedBytes.Add(uint64(len(data)))
		mReplShippedRecs.Add(uint64(len(logs)))
		f.noteErr(nil)
		f.mu.Lock()
		observers := f.observers // append-only: this prefix never changes
		f.mu.Unlock()
		for _, l := range logs {
			for _, observe := range observers {
				observe(l)
			}
		}
	}
}

// noteErr records the outcome of one primary exchange: failures feed
// the retry counter and health state, successes reset both.
func (f *Follower) noteErr(err error) {
	f.mu.Lock()
	f.lastErr = err
	if err != nil {
		f.consecFails++
	} else {
		f.consecFails = 0
		f.lastContact = time.Now()
	}
	f.mu.Unlock()
	if err != nil {
		mReplRetries.Add(1)
	}
}

// nextDelay computes the tail interval after an exchange: the steady
// poll on success; on failure, exponential backoff from the previous
// delay with ±25% jitter, capped at MaxBackoff. Jitter keeps a fleet of
// followers from stampeding a primary that just came back.
func (f *Follower) nextDelay(prev time.Duration, failed bool) time.Duration {
	if !failed {
		return f.opt.Poll
	}
	d := prev * 2
	if d < f.opt.Poll {
		d = f.opt.Poll
	}
	if d > f.opt.MaxBackoff {
		d = f.opt.MaxBackoff
	}
	f.mu.Lock()
	jitter := 1 + (f.rng.Float64()-0.5)/2
	f.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Start launches one background tailer per shard, each polling the
// primary at the configured interval and applying whatever committed.
// Transient failures are recorded (see Status, Health) and retried
// under jittered exponential backoff. Idempotent.
func (f *Follower) Start() {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	for i := range f.shards {
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			delay := f.opt.Poll
			t := time.NewTimer(delay)
			defer t.Stop()
			for {
				select {
				case <-f.stop:
					return
				case <-t.C:
				}
				err := f.catchUpShard(f.baseCtx, i)
				delay = f.nextDelay(delay, err != nil)
				t.Reset(delay)
			}
		}(i)
	}
}

// Lag returns the follower's total applied bytes across shards and how
// many last-seen primary committed bytes are still unapplied — the
// X-Replica-Applied / X-Replica-Lag read headers.
func (f *Follower) Lag() (applied, behind int64) {
	f.mu.Lock()
	committed := append([]int64(nil), f.primaryCommitted...)
	f.mu.Unlock()
	for i, fs := range f.shards {
		a := fs.CommittedOffset()
		applied += a
		if d := committed[i] - a; d > 0 {
			behind += d
		}
	}
	return applied, behind
}

// Health classifies the follower's upstream link: connected while the
// last exchange succeeded, degraded while failing and retrying under
// backoff, disconnected once no exchange has succeeded for 10×MaxBackoff.
func (f *Follower) Health() api.ReplicaHealth {
	f.mu.Lock()
	fails := f.consecFails
	lastErr := f.lastErr
	since := time.Since(f.lastContact)
	f.mu.Unlock()
	applied, behind := f.Lag()
	h := api.ReplicaHealth{
		State:               api.HealthConnected,
		ConsecutiveFailures: fails,
		SecondsSinceContact: since.Seconds(),
		AppliedBytes:        applied,
		LagBytes:            behind,
	}
	if lastErr != nil {
		h.LastError = lastErr.Error()
	}
	if fails > 0 {
		h.State = api.HealthDegraded
		if since > 10*f.opt.MaxBackoff {
			h.State = api.HealthDisconnected
		}
	}
	return h
}

// Status reports the follower's role and per-shard positions for
// /v1/replication/status.
func (f *Follower) Status() api.ReplicationStatus {
	f.mu.Lock()
	committed := append([]int64(nil), f.primaryCommitted...)
	lastErr := f.lastErr
	f.mu.Unlock()
	rs := api.ReplicationStatus{Role: api.RoleFollower, Sharded: f.sharded, Primary: f.opt.Primary}
	for i, fs := range f.shards {
		applied := fs.CommittedOffset()
		c := committed[i]
		if applied > c {
			c = applied
		}
		ck := int64(-1)
		if off, ok := fs.LastCheckpoint(); ok {
			ck = off
		}
		rs.Shards = append(rs.Shards, api.ShardPosition{
			Shard: i, Committed: c, Applied: applied, Lag: c - applied, Checkpoint: ck,
		})
	}
	if lastErr != nil {
		rs.Replicas = []api.ReplicaProbe{{URL: f.opt.Primary, Error: lastErr.Error()}}
	}
	return rs
}

// Stop halts the background shipper without closing the local store —
// for callers whose cache layer owns the store's close chain (and for
// promotion, which keeps serving from the store it just caught up).
// In-flight requests are cancelled. Idempotent.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() {
		close(f.stop)
		f.baseCancel()
	})
	f.wg.Wait()
}

// Close stops the shipper and closes the local store.
func (f *Follower) Close() error {
	f.Stop()
	return f.st.Close()
}
