package obs

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip: every bucket's upper bound maps back into that
// bucket, and bucket boundaries are monotonically increasing.
func TestBucketRoundTrip(t *testing.T) {
	prev := uint64(0)
	for i := 0; i < histNumBucket; i++ {
		u := bucketUpper(i)
		if got := bucketIndex(u); got != i {
			t.Fatalf("bucketIndex(bucketUpper(%d)=%d) = %d", i, u, got)
		}
		if i > 0 && u <= prev {
			t.Fatalf("bucket %d upper %d not > previous %d", i, u, prev)
		}
		prev = u
	}
	// Values past the top octave clamp into the final bucket.
	if got := bucketIndex(1 << 60); got != histNumBucket-1 {
		t.Fatalf("overflow value bucket = %d, want %d", got, histNumBucket-1)
	}
}

// TestQuantileAgainstSortedReference: histogram quantiles must bracket the
// exact sorted-sample quantile from below by the sample itself and from
// above by the 1/16 relative-error bound.
func TestQuantileAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 10, 1000, 20000} {
		var h Histogram
		vals := make([]uint64, n)
		for i := range vals {
			// Mix of magnitudes: exact small buckets through several octaves.
			v := uint64(rng.Int63n(1 << uint(4+rng.Intn(28))))
			vals[i] = v
			h.ObserveValue(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		snap := h.Snapshot()
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1.0} {
			rank := int(float64(n)*q+0.9999) - 1
			if rank < 0 {
				rank = 0
			}
			if rank >= n {
				rank = n - 1
			}
			exact := vals[rank]
			got := snap.Quantile(q)
			if got < exact {
				t.Fatalf("n=%d q=%g: estimate %d below exact %d", n, q, got, exact)
			}
			// Upper bound: bucket upper edge over-reports by ≤ 1/16.
			if limit := exact + exact/histSubCount + 1; got > limit {
				t.Fatalf("n=%d q=%g: estimate %d above error bound %d (exact %d)", n, q, got, limit, exact)
			}
		}
		if got := snap.Quantile(1.0); got != vals[n-1] {
			t.Fatalf("n=%d: p100 %d != max %d", n, got, vals[n-1])
		}
		if snap.Max != vals[n-1] {
			t.Fatalf("n=%d: Max %d != %d", n, snap.Max, vals[n-1])
		}
	}
}

// TestSnapshotMergeAndSub: merging two instances equals observing into
// one; Sub recovers a window's observations.
func TestSnapshotMergeAndSub(t *testing.T) {
	var a, b, all Histogram
	for i := uint64(0); i < 500; i++ {
		a.ObserveValue(i * 3)
		all.ObserveValue(i * 3)
		b.ObserveValue(i * 7)
		all.ObserveValue(i * 7)
	}
	m := a.Snapshot()
	m.Merge(b.Snapshot())
	want := all.Snapshot()
	if m.Count != want.Count || m.Sum != want.Sum || m.Max != want.Max || m.Buckets != want.Buckets {
		t.Fatal("merged snapshot differs from combined histogram")
	}

	var h Histogram
	h.ObserveValue(10)
	before := h.Snapshot()
	h.ObserveValue(100)
	h.ObserveValue(200)
	d := h.Snapshot().Sub(before)
	if d.Count != 2 || d.Sum != 300 {
		t.Fatalf("delta count=%d sum=%d, want 2/300", d.Count, d.Sum)
	}
	if q := d.Quantile(0.5); q < 100 || q > 107 {
		t.Fatalf("delta p50 = %d, want ~100", q)
	}
}

// TestConcurrentObserveSnapshot exercises parallel writers against
// concurrent snapshots and a scrape; run under -race this is the data-race
// proof for the lock-free histogram.
func TestConcurrentObserveSnapshot(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_lat_seconds", "test latency")
	c := reg.Counter("t_ops_total", "test ops")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.ObserveValue(uint64(rng.Int63n(1 << 20)))
				c.Inc()
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = h.Snapshot()
			_ = reg.WritePrometheus(&strings.Builder{})
		}
	}()
	wg.Wait()
	<-done
	snap := h.Snapshot()
	if snap.Count != workers*perWorker || c.Value() != workers*perWorker {
		t.Fatalf("count=%d counter=%d, want %d", snap.Count, c.Value(), workers*perWorker)
	}
	var total uint64
	for _, n := range snap.Buckets {
		total += n
	}
	if total != snap.Count {
		t.Fatalf("bucket total %d != count %d", total, snap.Count)
	}
}

// TestPrometheusGolden locks the text exposition format: deterministic
// ordering, label rendering, summary quantiles, seconds scaling.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_requests_total", "requests served", L("route", "/v1/query"), L("code", "200")).Add(7)
	reg.Counter("t_requests_total", "requests served", L("route", "/v1/query"), L("code", "500")).Inc()
	reg.Gauge("t_depth", "queue depth").Set(-3)
	reg.GaugeFunc("t_lag_bytes", "replication lag", func() float64 { return 128.5 })
	vh := reg.ValueHistogram("t_batch_records", "records per batch")
	for _, v := range []uint64{1, 2, 3} {
		vh.ObserveValue(v)
	}
	lh := reg.Histogram("t_commit_seconds", "commit latency")
	lh.Observe(1500 * time.Nanosecond)
	lh.Observe(1500 * time.Nanosecond)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_batch_records records per batch
# TYPE t_batch_records summary
t_batch_records{quantile="0.5"} 2
t_batch_records{quantile="0.9"} 3
t_batch_records{quantile="0.99"} 3
t_batch_records_sum 6
t_batch_records_count 3
# HELP t_commit_seconds commit latency
# TYPE t_commit_seconds summary
t_commit_seconds{quantile="0.5"} 1.5e-06
t_commit_seconds{quantile="0.9"} 1.5e-06
t_commit_seconds{quantile="0.99"} 1.5e-06
t_commit_seconds_sum 3e-06
t_commit_seconds_count 2
# HELP t_depth queue depth
# TYPE t_depth gauge
t_depth -3
# HELP t_lag_bytes replication lag
# TYPE t_lag_bytes gauge
t_lag_bytes 128.5
# HELP t_requests_total requests served
# TYPE t_requests_total counter
t_requests_total{route="/v1/query",code="200"} 7
t_requests_total{route="/v1/query",code="500"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistrationIdempotent: same (name, labels) returns the same handle;
// GaugeFunc re-registration replaces the callback.
func TestRegistrationIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("t_x_total", "x")
	b := reg.Counter("t_x_total", "x")
	if a != b {
		t.Fatal("re-registered counter returned a different handle")
	}
	reg.GaugeFunc("t_fn", "fn", func() float64 { return 1 })
	reg.GaugeFunc("t_fn", "fn", func() float64 { return 2 })
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "t_fn 2\n") {
		t.Fatalf("GaugeFunc re-registration did not replace callback:\n%s", sb.String())
	}
}

// TestDisableGate: with recording disabled, counters and histograms stay
// frozen and Now returns the zero time (so ObserveSince is a no-op).
func TestDisableGate(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	var h Histogram
	var c Counter
	c.Inc()
	c.Add(5)
	h.ObserveValue(42)
	h.ObserveSince(Now())
	if !Now().IsZero() {
		t.Fatal("Now() not zero while disabled")
	}
	if c.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatalf("recording not gated: counter=%d histCount=%d", c.Value(), h.Snapshot().Count)
	}
	SetEnabled(true)
	c.Inc()
	h.ObserveSince(Now())
	if c.Value() != 1 || h.Snapshot().Count != 1 {
		t.Fatal("recording did not resume after re-enable")
	}
	SetEnabled(false)
}

// TestHotPathAllocatesNothing: the recording operations every instrumented
// layer calls per request allocate nothing, whether recording is on or
// off — so instrumentation costs a few atomics, never garbage.
func TestHotPathAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hot_ops_total", "", L("op", "put"))
	h := reg.Histogram("hot_op_seconds", "")
	v := reg.ValueHistogram("hot_op_rounds", "")
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	for _, on := range []bool{true, false} {
		SetEnabled(on)
		for name, op := range map[string]func(){
			"Counter.Inc":            func() { c.Inc() },
			"Counter.Add":            func() { c.Add(3) },
			"Histogram.ObserveSince": func() { h.ObserveSince(Now()) },
			"Histogram.ObserveValue": func() { v.ObserveValue(17) },
		} {
			if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
				t.Errorf("%s with recording %v: %v allocations per call, want 0", name, on, allocs)
			}
		}
	}
	if c.Value() == 0 || h.Snapshot().Count == 0 || v.Snapshot().Count == 0 {
		t.Fatal("enabled arm recorded nothing: the test measures no-ops")
	}
}
