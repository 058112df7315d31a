package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/provenance"
	"repro/internal/store/wal"
)

// checkpointFixture stores a small history with every kind of entry a
// checkpoint carries — shared artifacts, a replaced generator, an ID of
// both kinds — and returns the checkpoint payload of the final state.
func checkpointFixture(t testing.TB) *fileCheckpoint {
	t.Helper()
	r3 := newRun("run-3")
	r3.used("both", "art-2") // "both" executes here and is an artifact in run-4
	r3.gen("both", "art-3")
	r4 := newRun("run-4")
	r4.used("run-4-exec", "both")
	r4.gen("run-4-exec", "art-1") // replaces run-1-exec as art-1's generator
	logs := []*provenance.RunLog{
		synthRun("run-1", []string{"art-0"}, []string{"art-1"}),
		synthRun("run-2", []string{"art-1", "art-0"}, []string{"art-2"}),
		r3.l, r4.l,
	}
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for _, l := range logs {
		if err := fs.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.snapshotLocked()
}

// restored decodes a checkpoint payload the way recover does after the
// frame check, into a store of its own.
func restored(body []byte) (*FileStore, bool) {
	var ck fileCheckpoint
	if json.Unmarshal(body, &ck) != nil {
		return nil, false
	}
	s := &FileStore{}
	if !s.restore(&ck) {
		return nil, false
	}
	s.size = ck.LogOffset
	return s, true
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkpointMutations are payloads one edit away from a valid checkpoint,
// each breaking one invariant restore must enforce.
func checkpointMutations(t testing.TB, valid *fileCheckpoint) map[string][]byte {
	mutate := func(edit func(ck *fileCheckpoint)) []byte {
		var ck fileCheckpoint
		if err := json.Unmarshal(mustMarshal(t, valid), &ck); err != nil {
			t.Fatal(err)
		}
		edit(&ck)
		return mustMarshal(t, &ck)
	}
	n := int32(len(valid.IDs))
	return map[string][]byte{
		"version 1":                   mutate(func(ck *fileCheckpoint) { ck.Version = 1 }),
		"version 2":                   mutate(func(ck *fileCheckpoint) { ck.Version = 2 }),
		"generating run missing":      mutate(func(ck *fileCheckpoint) { ck.GenRun = ck.GenRun[1:] }),
		"generating run to spare":     mutate(func(ck *fileCheckpoint) { ck.GenRun = append(ck.GenRun, 0) }),
		"generating run out of range": mutate(func(ck *fileCheckpoint) { ck.GenRun[0] = int32(len(ck.Runs)) }),
		"negative generating run":     mutate(func(ck *fileCheckpoint) { ck.GenRun[0] = -1 }),
		"generated after its last declaration": mutate(func(ck *fileCheckpoint) {
			at := 0
			for h, g := range ck.Gen {
				if g == noGen {
					continue
				}
				if int(ck.ArtRun[h])+1 < len(ck.Runs) {
					ck.GenRun[at] = ck.ArtRun[h] + 1
					return
				}
				at++
			}
			t.Fatal("fixture has no generated artifact last declared before the final run")
		}),
		"handle out of range":    mutate(func(ck *fileCheckpoint) { ck.Used.Refs[0] = n }),
		"negative handle":        mutate(func(ck *fileCheckpoint) { ck.Consumers.Refs[0] = -1 }),
		"generator out of range": mutate(func(ck *fileCheckpoint) { ck.Gen[0] = n }),
		"run index out of range": mutate(func(ck *fileCheckpoint) { ck.ArtRun[0] = int32(len(ck.Runs)) }),
		"unsorted list": mutate(func(ck *fileCheckpoint) {
			at := 0
			for _, l := range ck.Used.Lens {
				if l >= 2 {
					ck.Used.Refs[at], ck.Used.Refs[at+1] = ck.Used.Refs[at+1], ck.Used.Refs[at]
					return
				}
				at += int(l)
			}
			t.Fatal("fixture has no list of two")
		}),
		"repeated handle": mutate(func(ck *fileCheckpoint) {
			at := 0
			for _, l := range ck.Used.Lens {
				if l >= 2 {
					ck.Used.Refs[at+1] = ck.Used.Refs[at]
					return
				}
				at += int(l)
			}
		}),
		"dictionary duplicate": mutate(func(ck *fileCheckpoint) { ck.IDs[1] = ck.IDs[0] }),
		"run duplicate":        mutate(func(ck *fileCheckpoint) { ck.Runs[1] = ck.Runs[0] }),
		"column too short":     mutate(func(ck *fileCheckpoint) { ck.Gen = ck.Gen[1:] }),
		"list lengths overrun": mutate(func(ck *fileCheckpoint) { ck.Generated.Lens[0] += 1000 }),
		"refs left over":       mutate(func(ck *fileCheckpoint) { ck.Generated.Refs = append(ck.Generated.Refs, 0) }),
		"negative length":      mutate(func(ck *fileCheckpoint) { ck.Consumers.Lens[0] = -1 }),
		"offsets out of order": mutate(func(ck *fileCheckpoint) { ck.RunOffsets[1] = ck.RunOffsets[0] }),
		"offset past the log":  mutate(func(ck *fileCheckpoint) { ck.RunOffsets[len(ck.RunOffsets)-1] = ck.LogOffset }),
	}
}

func TestCheckpointRestoreRejectsBrokenInvariants(t *testing.T) {
	valid := checkpointFixture(t)
	if _, ok := restored(mustMarshal(t, valid)); !ok {
		t.Fatal("the unmodified checkpoint was refused")
	}
	for name, body := range checkpointMutations(t, valid) {
		if _, ok := restored(body); ok {
			t.Errorf("%s: restore accepted it", name)
		}
	}
}

// v1Checkpoint is the payload FileStore wrote before the entity table: one
// string-keyed object per index, no version field.
type v1Checkpoint struct {
	LogOffset int64               `json:"log_offset"`
	Order     []string            `json:"order"`
	Offsets   map[string]int64    `json:"offsets"`
	ArtOwner  map[string]string   `json:"art_owner"`
	ExecOwner map[string]string   `json:"exec_owner"`
	GenBy     map[string]string   `json:"gen_by"`
	Consumers map[string][]string `json:"consumers"`
	Used      map[string][]string `json:"used"`
	Generated map[string][]string `json:"generated"`
	Events    int                 `json:"events"`
	Anns      int                 `json:"annotations"`
}

// TestV1CheckpointIsNoCheckpoint: a directory left by the previous format
// opens by full scan — the v1 file here covers the whole log but records a
// wrong generator, so trusting it would show — answers as the oracle does,
// and the next Checkpoint replaces the file with one this build restores.
func TestV1CheckpointIsNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore()
	v1 := v1Checkpoint{
		Offsets: map[string]int64{}, ArtOwner: map[string]string{}, ExecOwner: map[string]string{},
		GenBy: map[string]string{}, Consumers: map[string][]string{}, Used: map[string][]string{}, Generated: map[string][]string{},
	}
	prev := "art-00"
	for i := 1; i <= 6; i++ {
		out := fmt.Sprintf("art-%02d", i)
		l := synthRun(fmt.Sprintf("run-%02d", i), []string{prev}, []string{out})
		v1.Offsets[l.Run.ID] = fs.CommittedOffset()
		v1.Order = append(v1.Order, l.Run.ID)
		if err := fs.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		if err := mem.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		exec := l.Executions[0].ID
		v1.ExecOwner[exec] = l.Run.ID
		v1.ArtOwner[prev], v1.ArtOwner[out] = l.Run.ID, l.Run.ID
		v1.GenBy[out] = "not-the-generator"
		v1.Consumers[prev] = []string{exec}
		v1.Used[exec] = []string{prev}
		v1.Generated[exec] = []string{out}
		v1.Events += len(l.Events)
		prev = out
	}
	v1.LogOffset = fs.CommittedOffset()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wal.SaveCheckpoint(CheckpointPath(dir), v1); err != nil {
		t.Fatal(err)
	}

	openIgnoresCheckpoint(t, dir, mem, prev, "run-06-exec", v1.LogOffset)
}

// openIgnoresCheckpoint opens dir, whose checkpoint file this build must
// not trust, and checks the open scanned the log instead: no checkpoint
// restored, art's lineage and generator as the oracle has them. It then
// checkpoints, and expects a file of the current version that the next
// open restores at logEnd with the same answers.
func openIgnoresCheckpoint(t *testing.T, dir string, mem *MemStore, art, generator string, logEnd int64) {
	t.Helper()
	re, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if off, ok := re.LastCheckpoint(); ok {
		t.Fatalf("the stale checkpoint was restored (offset %d)", off)
	}
	want, _ := NaiveClosure(mem, art, Up)
	if got, err := re.Closure(art, Up); err != nil || !slices.Equal(got, want) {
		t.Fatalf("lineage after the full-scan open = %v, %v; want %v", got, err, want)
	}
	if g, _, err := expandOne(re, art, Up); err != nil || len(g) != 1 || g[0] != generator {
		t.Fatalf("Expand([%s], Up) = %v, %v; want [%s]", art, g, err, generator)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re.Close()

	var ck fileCheckpoint
	if ok, _ := wal.LoadCheckpoint(CheckpointPath(dir), &ck); !ok || ck.Version != fileCheckpointVersion {
		t.Fatalf("Checkpoint left version %d (loaded %v), want %d", ck.Version, ok, fileCheckpointVersion)
	}
	warm, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if off, ok := warm.LastCheckpoint(); !ok || off != logEnd {
		t.Fatalf("reopen after Checkpoint: LastCheckpoint = %d, %v; want %d", off, ok, logEnd)
	}
	if got, err := warm.Closure(art, Up); err != nil || !slices.Equal(got, want) {
		t.Fatalf("lineage after the checkpointed open = %v, %v; want %v", got, err, want)
	}
}

// TestV2CheckpointIsNoCheckpoint: a version-2 file — this build's columns
// without gen_run — is refused like a v1 one. The file here covers the
// whole log but names a wrong generator, so trusting it would show.
func TestV2CheckpointIsNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore()
	prev := "art-00"
	for i := 1; i <= 6; i++ {
		out := fmt.Sprintf("art-%02d", i)
		l := synthRun(fmt.Sprintf("run-%02d", i), []string{prev}, []string{out})
		if err := fs.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		if err := mem.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		prev = out
	}
	fs.mu.RLock()
	ck := fs.snapshotLocked()
	fs.mu.RUnlock()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	wrong := fs.tab.handles["run-01-exec"]
	for h, g := range ck.Gen {
		if g != noGen {
			ck.Gen[h] = wrong
		}
	}
	var v2 map[string]any
	if err := json.Unmarshal(mustMarshal(t, ck), &v2); err != nil {
		t.Fatal(err)
	}
	v2["version"] = 2
	delete(v2, "gen_run")
	if err := wal.SaveCheckpoint(CheckpointPath(dir), v2); err != nil {
		t.Fatal(err)
	}
	openIgnoresCheckpoint(t, dir, mem, prev, "run-06-exec", ck.LogOffset)
}

// FuzzCheckpointLoad feeds the checkpoint decoder arbitrary bytes twice
// over: as file contents (header, CRC, payload) and — since a fuzzer will
// not guess a CRC — as the payload behind an intact frame. Neither may
// panic; a payload restore accepts must be safe to traverse, and saving
// what was loaded must load back to the same snapshot.
func FuzzCheckpointLoad(f *testing.F) {
	valid := checkpointFixture(f)
	body := mustMarshal(f, valid)
	f.Add(body)
	framed, err := wal.EncodeCheckpoint(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(framed)
	for _, m := range checkpointMutations(f, valid) {
		f.Add(m)
	}
	f.Add(mustMarshal(f, v1Checkpoint{LogOffset: 10, Order: []string{"r"}, Offsets: map[string]int64{"r": 0}}))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":3}`))
	f.Add([]byte("provckpt1 00000000 2\n{}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var ck fileCheckpoint
		if wal.DecodeCheckpoint(data, &ck) {
			new(FileStore).restore(&ck)
		}
		s, ok := restored(data)
		if !ok {
			return
		}
		for h := range s.tab.ents {
			e := &s.tab.ents[h]
			for _, list := range [][]int32{e.consumers, e.used, e.generated} {
				if !sortedUniqueStrings(s.tab.names(list)) {
					t.Fatalf("restored list of %q is not sorted-unique: %v", e.id, s.tab.names(list))
				}
			}
			if e.gen[0] != noGen && (e.genRun < 0 || e.genRun > e.artRun) {
				t.Fatalf("restored %q: generated in run %d, last declared in run %d", e.id, e.genRun, e.artRun)
			}
			if s.tab.lookup(e.id) == nil {
				continue
			}
			for _, dir := range []Direction{Up, Down} {
				if _, err := s.Closure(e.id, dir); err != nil {
					t.Fatal(err)
				}
			}
			s.runOffsetLocked(e.artRun)
			s.runOffsetLocked(e.execRun)
		}
		first := mustMarshal(t, s.snapshotLocked())
		again, ok := restored(first)
		if !ok {
			t.Fatalf("a saved snapshot was refused: %s", first)
		}
		if second := mustMarshal(t, again.snapshotLocked()); !bytes.Equal(first, second) {
			t.Fatalf("load → snapshot → load is not a fixed point:\n%s\n%s", first, second)
		}
	})
}

// TestCheckpointSmallerThanLog pins the point of the dictionary encoding:
// on a store of shared, repeatedly referenced entities the checkpoint
// spells each ID once, so it stays a fraction of the log it indexes.
func TestCheckpointSmallerThanLog(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for _, l := range generatedWorkload(rand.New(rand.NewSource(3)), 200) {
		if err := fs.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.Stat(CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	data := mustRead(t, CheckpointPath(dir))
	for _, id := range []string{"a03", "e07", "x01"} {
		if n := bytes.Count(data, []byte(`"`+id+`"`)); n != 1 {
			t.Errorf("checkpoint spells %s %d times, want once", id, n)
		}
	}
	if st, _ := fs.Stats(); ckpt.Size()*4 > st.Bytes {
		t.Errorf("checkpoint is %d bytes for a %d-byte log", ckpt.Size(), st.Bytes)
	}
}
