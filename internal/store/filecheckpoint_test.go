package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
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
func restored(payload []byte) (*FileStore, bool) {
	ck, ok := decodeFileCheckpoint(payload)
	if !ok {
		return nil, false
	}
	s := &FileStore{}
	if !s.restore(ck) {
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

// jsonCheckpoint is the version-3 payload, the last JSON one: version 4's
// columns under these field names.
type jsonCheckpoint struct {
	Version    int       `json:"version"`
	LogOffset  int64     `json:"log_offset"`
	Events     int       `json:"events"`
	Anns       int       `json:"annotations"`
	Runs       []string  `json:"runs"`
	RunOffsets []int64   `json:"run_offsets"`
	IDs        []string  `json:"ids"`
	ArtRun     []int32   `json:"art_run"`
	ExecRun    []int32   `json:"exec_run"`
	Gen        []int32   `json:"gen"`
	GenRun     []int32   `json:"gen_run"`
	Consumers  jsonLists `json:"consumers"`
	Used       jsonLists `json:"used"`
	Generated  jsonLists `json:"generated"`
}

type jsonLists struct {
	Lens []int32 `json:"lens"`
	Refs []int32 `json:"refs"`
}

// asVersion3 is ck as a version-3 build wrote it.
func asVersion3(ck *fileCheckpoint) *jsonCheckpoint {
	lists := func(p handleLists) jsonLists { return jsonLists{p.Lens, p.Refs} }
	return &jsonCheckpoint{
		Version: 3, LogOffset: ck.LogOffset, Events: ck.Events, Anns: ck.Anns, Runs: ck.Runs, RunOffsets: ck.RunOffsets,
		IDs: ck.IDs, ArtRun: ck.ArtRun, ExecRun: ck.ExecRun, Gen: ck.Gen, GenRun: ck.GenRun,
		Consumers: lists(ck.Consumers), Used: lists(ck.Used), Generated: lists(ck.Generated),
	}
}

// checkpointMutations are payloads one edit away from a valid checkpoint,
// each breaking one invariant restore must enforce.
func checkpointMutations(t testing.TB, valid *fileCheckpoint) map[string][]byte {
	mutate := func(edit func(ck *fileCheckpoint)) []byte {
		ck, ok := decodeFileCheckpoint(valid.encode())
		if !ok {
			t.Fatal("a fresh checkpoint does not decode")
		}
		edit(ck)
		return ck.encode()
	}
	n := int32(len(valid.IDs))
	return map[string][]byte{
		"version 1":                   mutate(func(ck *fileCheckpoint) { ck.Version = 1 }),
		"version 2":                   mutate(func(ck *fileCheckpoint) { ck.Version = 2 }),
		"version 3":                   mutate(func(ck *fileCheckpoint) { ck.Version = 3 }),
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
	if _, ok := restored(valid.encode()); !ok {
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
	if err := wal.SaveCheckpoint(CheckpointPath(dir), mustMarshal(t, v1)); err != nil {
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
	wantRuns, _ := mem.Runs()
	if got, err := re.Runs(); err != nil || !slices.Equal(got, wantRuns) {
		t.Fatalf("Runs after the full-scan open = %v, %v; want %v", got, err, wantRuns)
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

	if _, ok := decodeFileCheckpoint(mustLoad(t, CheckpointPath(dir))); !ok {
		t.Fatalf("Checkpoint left a file this build does not decode, want version %d", fileCheckpointVersion)
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

// TestV2CheckpointIsNoCheckpoint: a version-2 file — version 3's columns
// without gen_run — is refused like a v1 one.
func TestV2CheckpointIsNoCheckpoint(t *testing.T) {
	jsonCheckpointIsNoCheckpoint(t, func(v3 map[string]any) {
		v3["version"] = 2
		delete(v3, "gen_run")
	})
}

// TestV3CheckpointIsNoCheckpoint is the upgrade path: a directory whose
// checkpoint.json the last JSON build wrote opens by full scan, answers
// Runs, Closure and Expand as the log does, and its next Checkpoint writes
// the binary version.
func TestV3CheckpointIsNoCheckpoint(t *testing.T) {
	jsonCheckpointIsNoCheckpoint(t, func(map[string]any) {})
}

// jsonCheckpointIsNoCheckpoint stores a six-run chain, writes its
// checkpoint as a version-3 build would, edited by edit, and checks that
// the open ignores it. The file covers the whole log but names a wrong
// generator for every artifact, so trusting it would show.
func jsonCheckpointIsNoCheckpoint(t *testing.T, edit func(v3 map[string]any)) {
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
	var v3 map[string]any
	if err := json.Unmarshal(mustMarshal(t, asVersion3(ck)), &v3); err != nil {
		t.Fatal(err)
	}
	edit(v3)
	if err := wal.SaveCheckpoint(CheckpointPath(dir), mustMarshal(t, v3)); err != nil {
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
	for _, payload := range [][]byte{valid.encode(), mustMarshal(f, asVersion3(valid))} {
		framed := wal.EncodeCheckpoint(payload)
		f.Add(payload)
		f.Add(framed)
		f.Add(payload[:len(payload)/2])
		f.Add(framed[:len(framed)/2])
	}
	for _, m := range checkpointMutations(f, valid) {
		f.Add(m)
	}
	f.Add(mustMarshal(f, v1Checkpoint{LogOffset: 10, Order: []string{"r"}, Offsets: map[string]int64{"r": 0}}))
	f.Add([]byte("provckpt1 00000000 2\n{}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, ok := wal.DecodeCheckpoint(data); ok {
			restored(payload)
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
		first := s.snapshotLocked().encode()
		again, ok := restored(first)
		if !ok {
			t.Fatalf("a saved snapshot was refused: %x", first)
		}
		if second := again.snapshotLocked().encode(); !bytes.Equal(first, second) {
			t.Fatalf("load → snapshot → load is not a fixed point:\n%x\n%x", first, second)
		}
	})
}

// TestCheckpointSmallerThanLog pins the point of the dictionary encoding:
// on a store of shared, repeatedly referenced entities the checkpoint
// spells each ID once, so it stays a fraction of the log it indexes. This
// store's checkpoint is 2 039 bytes for a 285 494-byte log (1/140; 1/48 as
// JSON); the bound, 1/100, leaves it 40 % to grow.
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
	ck, ok := decodeFileCheckpoint(mustLoad(t, CheckpointPath(dir)))
	if !ok {
		t.Fatal("the checkpoint does not decode")
	}
	for _, id := range []string{"a03", "e07", "x01"} {
		if n := countOf(ck.IDs, id); n != 1 {
			t.Errorf("checkpoint spells %s %d times, want once", id, n)
		}
	}
	if st, _ := fs.Stats(); ckpt.Size()*100 > st.Bytes {
		t.Errorf("checkpoint is %d bytes for a %d-byte log", ckpt.Size(), st.Bytes)
	}
}

func countOf(col []string, s string) (n int) {
	for _, c := range col {
		if c == s {
			n++
		}
	}
	return n
}

// mustLoad is the payload of the intact checkpoint file at path.
func mustLoad(t testing.TB, path string) []byte {
	t.Helper()
	payload, ok := wal.LoadCheckpoint(path)
	if !ok {
		t.Fatalf("no intact checkpoint at %s", path)
	}
	return payload
}

// TestCheckpointCountBeyondPayloadRefused: a payload that claims 2^31
// dictionary entries in 16 bytes is refused before anything of that size
// is allocated.
func TestCheckpointCountBeyondPayloadRefused(t *testing.T) {
	var w wal.ColumnWriter
	w.Int(fileCheckpointVersion)
	w.Int(0) // log offset
	w.Int(0) // events
	w.Int(0) // annotations
	w.Strings(nil)
	w.Offsets(nil)
	payload := binary.AppendUvarint(w.Bytes(), 1<<31) // the dictionary's count
	payload = append(payload, make([]byte, 16-len(payload))...)
	if len(payload) != 16 {
		t.Fatalf("payload is %d bytes, want 16", len(payload))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := decodeFileCheckpoint(payload)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("the payload was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("refusing it allocated %d bytes", grew)
	}
}
