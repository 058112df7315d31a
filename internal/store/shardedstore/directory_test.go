package shardedstore

// The router's directory has two producers — indexLocked folds accepted
// runs into it one by one, rebuild derives it from the recovered shards'
// entity tables — and these tests hold them to one answer, and hold an
// open to its cost: each stored record decoded once, no checkpointed
// record read at all.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/store"
)

// directoryWorkload is synthLogs' random history with the cases a derived
// directory can get wrong spliced in, on chosen shards of a 4-shard router:
//
//   - x is generated on shard 0 (gen0), its generator is replaced by a run
//     on shard 1 (regen1), and shard 0 then re-declares it without
//     generating it (use0): shard 0 declared x last, shard 1 generated it
//     last, and only the run that set the generator says so.
//   - "both" is an artifact on shard 2 and an execution on shard 3.
//   - early2 and late2 commit to shard 2 in that order and reach the router
//     in the other (see TestDerivedDirectoryMatchesLiveFold); both use y,
//     which after3, accepted after both, uses on shard 3. They re-declare
//     nothing else of each other's: for an ID both declared, the shard
//     would answer from the run it committed last and the oracle from the
//     run accepted last.
//
// before ends with x's three runs and is where the checkpointed variant
// snapshots: on the reopen nothing of x replays from a log, so only the
// snapshots' gen_run column can tell shard 0's last declaration of x from
// its last generation of it.
//
// The spliced runs are pinned to their shards; the rest go where placement
// sends them, or round-robin across the shards when spread is set, which
// puts most of synthLogs' edges across shards.
type directoryWorkload struct {
	before, after []*provenance.RunLog
	early2, late2 *provenance.RunLog
	regen1        string // the run whose manifest entry the journal-missed variant drops
	pinned        map[*provenance.RunLog]int
	spread        bool
}

func newDirectoryWorkload(seed int64, spread bool) *directoryWorkload {
	tag := fmt.Sprintf("w%d", seed)
	id := func(name string) string { return tag + "-" + name }
	w := &directoryWorkload{pinned: map[*provenance.RunLog]int{}, spread: spread}
	run := func(shard int, name string, uses, gens []string) *provenance.RunLog {
		l := shapedRun(id(name), id(name+"-exec"), uses, gens)
		w.pinned[l] = shard
		return l
	}
	base := synthLogs(seed, 36)
	regen1 := run(1, "regen1", nil, []string{id("x")})
	w.regen1 = regen1.Run.ID
	w.before = append(slices.Clone(base[:12]),
		run(0, "gen0", nil, []string{id("x")}),
		regen1,
		run(0, "use0", []string{id("x")}, []string{id("x-derived")}),
	)
	exec3 := shapedRun(id("exec3"), id("both"), []string{id("x-derived")}, []string{id("z")})
	w.pinned[exec3] = 3
	w.after = append(slices.Clone(base[12:24]),
		run(2, "art2", nil, []string{id("both")}),
		exec3,
		run(1, "src1", nil, []string{id("y")}),
	)
	w.early2 = run(2, "early2", []string{id("y")}, []string{id("y-early")})
	w.late2 = run(2, "late2", []string{id("y")}, []string{id("y-late")})
	w.after = append(w.after, w.early2, w.late2, run(3, "after3", []string{id("y")}, []string{id("y-after")}))
	w.after = append(w.after, base[24:]...)
	return w
}

func (w *directoryWorkload) logs() []*provenance.RunLog {
	return append(slices.Clone(w.before), w.after...)
}

// ingest stores the workload through r, checkpointing after w.before when
// asked to. early2 and late2 go in the way two racing PutRunLog calls can
// leave them: committed to their shard in one order, folded into the
// router and journaled in the other.
func (w *directoryWorkload) ingest(t *testing.T, r *Router, checkpoint bool) {
	t.Helper()
	n := 0
	put := func(l *provenance.RunLog) {
		shard, pinned := w.pinned[l]
		var err error
		switch {
		case pinned:
			err = putOn(r, l, shard)
		case w.spread:
			err = putOn(r, l, n%r.NumShards())
		default:
			err = r.PutRunLog(l)
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	for _, l := range w.before {
		put(l)
	}
	if checkpoint {
		if err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range w.after {
		switch l {
		case w.early2:
			for _, racing := range []*provenance.RunLog{w.early2, w.late2} {
				if err := r.shards[2].PutRunLog(racing); err != nil {
					t.Fatal(err)
				}
			}
			r.mu.Lock()
			for _, racing := range []*provenance.RunLog{w.late2, w.early2} {
				r.indexLocked(racing, 2)
				if _, err := r.manifest.WriteString(racing.Run.ID + "\n"); err != nil {
					t.Fatal(err)
				}
			}
			r.mu.Unlock()
		case w.late2:
		default:
			put(l)
		}
	}
}

// inOrder returns logs arranged as runs lists them.
func inOrder(t *testing.T, logs []*provenance.RunLog, runs []string) []*provenance.RunLog {
	t.Helper()
	byID := map[string]*provenance.RunLog{}
	for _, l := range logs {
		byID[l.Run.ID] = l
	}
	out := make([]*provenance.RunLog, len(runs))
	for i, id := range runs {
		if out[i] = byID[id]; out[i] == nil {
			t.Fatalf("the router lists run %q, which nobody stored", id)
		}
	}
	if len(runs) != len(logs) {
		t.Fatalf("the router lists %d runs of %d stored", len(runs), len(logs))
	}
	return out
}

// sameDirectory compares two routers' directories entry by entry, and the
// counters and run placement kept beside them.
func sameDirectory(t *testing.T, label string, got, want *Router) {
	t.Helper()
	for id, wd := range want.ids {
		w := want.ents[wd]
		if gd, ok := got.ids[id]; !ok || got.ents[gd] != w {
			t.Errorf("%s: directory[%s] = %+v (present %v), want %+v", label, id, got.entryLocked(id), ok, w)
		}
	}
	for id, gd := range got.ids {
		if _, ok := want.ids[id]; !ok {
			t.Errorf("%s: directory[%s] = %+v, want no entry", label, id, got.ents[gd])
		}
	}
	for _, r := range []*Router{got, want} {
		handles := make([]bool, len(r.ents))
		for id, d := range r.ids {
			if d < 0 || int(d) >= len(handles) || handles[d] {
				t.Errorf("%s: %s has handle %d: out of %d entries, or shared", label, id, d, len(handles))
				continue
			}
			handles[d] = true
		}
		if len(r.ids) != len(r.ents) {
			t.Errorf("%s: %d IDs for %d entries", label, len(r.ids), len(r.ents))
		}
	}
	if got.nArt != want.nArt || got.nExec != want.nExec {
		t.Errorf("%s: %d artifacts, %d executions; want %d, %d", label, got.nArt, got.nExec, want.nArt, want.nExec)
	}
	for run, shard := range want.runShard {
		if g, ok := got.runShard[run]; !ok || g != shard {
			t.Errorf("%s: run %s on shard %d (present %v), want %d", label, run, g, ok, shard)
		}
	}
	if len(got.runShard) != len(want.runShard) {
		t.Errorf("%s: %d runs placed, want %d", label, len(got.runShard), len(want.runShard))
	}
}

// navigationMatches compares every read the resident state alone answers —
// one-ID and whole-set Expand, Closure, both directions — with the oracle,
// closures with store.NaiveClosure over it.
func navigationMatches(t *testing.T, label string, r *Router, oracle *store.MemStore, entities []string) {
	t.Helper()
	for _, dir := range []store.Direction{store.Up, store.Down} {
		for _, id := range entities {
			want, _ := expandOne(oracle, id, dir)
			if got, err := expandOne(r, id, dir); err != nil || !slices.Equal(got, want) {
				t.Errorf("%s: Expand([%s], %v) = %v, %v; want %v", label, id, dir, got, err, want)
			}
		}
		want, _ := oracle.Expand(entities, dir)
		if got, err := r.Expand(entities, dir); err != nil || encodeAdj(got) != encodeAdj(want) {
			t.Errorf("%s: Expand %v = %s, %v; want %s", label, dir, encodeAdj(got), err, encodeAdj(want))
		}
		for _, id := range entities {
			want, _ := store.NaiveClosure(oracle, id, dir)
			if got, err := r.Closure(id, dir); err != nil || !slices.Equal(got, want) {
				t.Errorf("%s: Closure(%s, %v) = %v, %v; want %v", label, id, dir, got, err, want)
			}
		}
	}
}

// checkAgainstFold holds r to what its own accepted order implies: its
// directory must be the one folding the logs in that order builds, and its
// reads those of a MemStore fed in that order.
func checkAgainstFold(t *testing.T, label string, r *Router, logs []*provenance.RunLog) {
	t.Helper()
	runs, _ := r.Runs()
	folded, oracle := NewMem(r.NumShards()), store.NewMemStore()
	shardOf := membership(t, r)
	for _, l := range inOrder(t, logs, runs) {
		folded.indexLocked(l, shardOf[l.Run.ID])
		if err := oracle.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	sameDirectory(t, label, r, folded)
	if !agreesWithReference(t, r, oracle, logs, entitiesOf(logs), label) {
		t.Errorf("%s: reads diverge from the oracle", label)
	}
	navigationMatches(t, label, r, oracle, entitiesOf(logs))
}

// replicate feeds a fresh follower router every record of primary's shard
// logs through ApplyReplicated: each shard's stream in its own log order,
// the streams interleaved along primary's accepted order.
func replicate(t *testing.T, primary *Router, dir string) *Router {
	t.Helper()
	fol, err := OpenWith(dir, primary.NumShards(), store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][][]byte, primary.NumShards())
	for si := range streams {
		fs, err := primary.FileShard(si)
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := fs.ReadCommitted(0, int(fs.CommittedOffset())+1)
		if err != nil {
			t.Fatal(err)
		}
		streams[si] = bytes.SplitAfter(data, []byte("\n"))
	}
	runs, _ := primary.Runs()
	for _, run := range runs {
		si := primary.runShard[run]
		if _, _, err := fol.ApplyReplicated(si, streams[si][0]); err != nil {
			t.Fatal(err)
		}
		streams[si] = streams[si][1:]
	}
	return fol
}

// TestDerivedDirectoryMatchesLiveFold: over generated workloads, the
// directory the live router folded, the one a reopen derives from a full
// log scan, the one it derives from checkpoints plus the log suffix, the
// one a follower folds from shipped records, and the one derived when the
// journal lost a run are each the fold of the runs in that router's own
// accepted order, entry by entry, and every read agrees with a MemStore
// fed in that order — with the unpinned runs where placement puts them,
// and spread round-robin.
func TestDerivedDirectoryMatchesLiveFold(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, cs := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			checkpoint, spread := cs[0], cs[1]
			label := fmt.Sprintf("seed %d, checkpoint %v, spread %v", seed, checkpoint, spread)
			dir := t.TempDir()
			live, err := OpenWith(dir, 4, store.FileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			w := newDirectoryWorkload(seed, spread)
			w.ingest(t, live, checkpoint)
			checkAgainstFold(t, label+", live", live, w.logs())
			gen := live.entryLocked(fmt.Sprintf("w%d-x", seed))
			if gen.arts != 0b11 || gen.art != 0 || gen.gen != 2 {
				t.Fatalf("%s: x's entry is %+v; the workload should leave it declared last on shard 0 and generated last on shard 1", label, gen)
			}

			fol := replicate(t, live, t.TempDir())
			checkAgainstFold(t, label+", follower", fol, w.logs())
			fol.Close()

			liveRuns, _ := live.Runs()
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenWith(dir, 4, store.FileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, restored := re.files[0].LastCheckpoint(); restored != checkpoint {
				t.Fatalf("%s: reopen restored a checkpoint: %v", label, restored)
			}
			if runs, _ := re.Runs(); !slices.Equal(runs, liveRuns) {
				t.Fatalf("%s: reopened order %v, want %v", label, runs, liveRuns)
			}
			sameDirectory(t, label+", reopened vs live", re, live)
			checkAgainstFold(t, label+", reopened", re, w.logs())
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}

			// The journal loses regen1: it orders last, so x's generator
			// edge and latest declaration move to its shard.
			manifest := filepath.Join(dir, manifestFileName)
			journal, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			cut := strings.Replace(string(journal), w.regen1+"\n", "", 1)
			if cut == string(journal) {
				t.Fatalf("%s: %s is not in the journal", label, w.regen1)
			}
			if err := os.WriteFile(manifest, []byte(cut), 0o644); err != nil {
				t.Fatal(err)
			}
			missed, err := OpenWith(dir, 4, store.FileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if runs, _ := missed.Runs(); runs[len(runs)-1] != w.regen1 {
				t.Fatalf("%s: the journal-missed run is not last: %v", label, runs)
			}
			checkAgainstFold(t, label+", journal-missed", missed, w.logs())
			if err := missed.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardedReopenReadsNoPrefix: once every shard has checkpointed, an
// open restores the snapshots, replays the log suffix and derives the
// directory without reading a byte below the checkpoints — here those
// bytes are garbage — and the resident state answers as the oracle.
func TestShardedReopenReadsNoPrefix(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenWith(dir, 4, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := newDirectoryWorkload(9, true)
	w.ingest(t, r, true)
	oracle := store.NewMemStore()
	runs, _ := r.Runs()
	for _, l := range inOrder(t, w.logs(), runs) {
		if err := oracle.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	var prefix [4]int64
	for si, fs := range r.files {
		off, ok := fs.LastCheckpoint()
		if !ok || off == 0 || off >= fs.CommittedOffset() {
			t.Fatalf("shard %d: checkpoint at %d (%v) of %d log bytes; the test needs a prefix and a suffix", si, off, ok, fs.CommittedOffset())
		}
		prefix[si] = off
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for si, off := range prefix {
		path := filepath.Join(dir, fmt.Sprintf("shard-%03d", si), store.LogFileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data[:off] {
			if data[i] != '\n' {
				data[i] = '#'
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := OpenWith(dir, 4, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, _ := re.Runs(); !slices.Equal(got, runs) {
		t.Fatalf("reopened order %v, want %v", got, runs)
	}
	navigationMatches(t, "garbage prefix", re, oracle, entitiesOf(w.logs()))
}

// TestOpenDecodesEachRecordOnce counts the decodes of an open: one per
// stored run without checkpoints, one per run past them with, and no
// sequential scan in either case.
func TestOpenDecodesEachRecordOnce(t *testing.T) {
	recovered := obs.Default().Counter("prov_store_recovered_records_total", "")
	scanned := obs.Default().Counter("prov_store_scan_records_total", "")
	reopen := func(dir string) (r *Router, decoded, scans uint64) {
		t.Helper()
		d0, s0 := recovered.Value(), scanned.Value()
		r, err := OpenWith(dir, 4, store.FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return r, recovered.Value() - d0, scanned.Value() - s0
	}
	put := func(r *Router, logs []*provenance.RunLog) {
		t.Helper()
		for _, l := range logs {
			if err := r.PutRunLog(l); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	logs := synthLogs(21, 60)
	r, _, _ := reopen(dir)
	put(r, logs[:40])
	r.Close()

	r, decoded, scans := reopen(dir)
	if decoded != 40 || scans != 0 {
		t.Errorf("open without checkpoints decoded %d records and scanned %d, want 40 and 0", decoded, scans)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put(r, logs[40:])
	r.Close()

	r, decoded, scans = reopen(dir)
	defer r.Close()
	if decoded != 20 || scans != 0 {
		t.Errorf("open past the checkpoints decoded %d records and scanned %d, want 20 and 0", decoded, scans)
	}
	if err := r.ScanLogs(0, func(*provenance.RunLog) error { return nil }); err != nil || scanned.Value() == 0 {
		t.Fatalf("ScanLogs (err %v) did not move prov_store_scan_records_total: the test watches the wrong counter", err)
	}
}

// openFiles counts this process's open file descriptors.
func openFiles(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to count: %v", err)
	}
	return len(fds)
}

// TestOpenWithClosesShardsOnFailure: when one shard cannot open, the ones
// that did are closed again, not leaked with their log files and writers.
func TestOpenWithClosesShardsOnFailure(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenWith(dir, 4, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	// A directory where shard 2's log file should be: its open fails.
	log2 := filepath.Join(dir, "shard-002", store.LogFileName)
	if err := os.Remove(log2); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(log2, 0o755); err != nil {
		t.Fatal(err)
	}
	before := openFiles(t)
	if _, err := OpenWith(dir, 4, store.FileOptions{}); err == nil || !strings.Contains(err.Error(), "open shard 2") {
		t.Fatalf("Open = %v, want shard 2's failure", err)
	}
	if after := openFiles(t); after != before {
		t.Errorf("%d descriptors open after the failed Open, %d before it", after, before)
	}
}

// TestRebuildKeepsAnIntactManifest: an open rewrites the order journal only
// when it is not already the recovered order.
func TestRebuildKeepsAnIntactManifest(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, manifestFileName)
	long := time.Now().Add(-time.Hour).Truncate(time.Second)
	reopen := func() (rewritten bool) {
		t.Helper()
		if err := os.Chtimes(manifest, long, long); err != nil {
			t.Fatal(err)
		}
		r, err := OpenWith(dir, 2, store.FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		fi, err := os.Stat(manifest)
		if err != nil {
			t.Fatal(err)
		}
		return !fi.ModTime().Equal(long)
	}
	r, err := OpenWith(dir, 2, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range synthLogs(5, 10) {
		if err := r.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := r.Runs()
	r.Close()
	journal, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}

	if reopen() {
		t.Error("an open rewrote a journal that already held the recovered order")
	}
	// A torn trailing entry would swallow the next append: rewritten.
	if err := os.WriteFile(manifest, append(slices.Clone(journal), "run-torn"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if !reopen() {
		t.Error("an open kept a journal with a torn trailing entry")
	}
	if got, _ := os.ReadFile(manifest); !bytes.Equal(got, journal) {
		t.Errorf("journal after the rewrite:\n%s\nwant the recovered order %v", got, want)
	}
}
