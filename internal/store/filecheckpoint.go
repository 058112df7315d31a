package store

import (
	"slices"

	"repro/internal/store/wal"
)

// fileCheckpointVersion is the format this build writes and the only one
// it restores. Versions 1 to 3 were JSON: version 1 (before the entity
// table) wrote one string-keyed object per index, version 2 lacks the
// gen_run column, without which a sharded router cannot place an
// artifact's generator edge, and version 3 held version 4's columns as JSON
// arrays. A JSON payload opens with '{', which reads here as version −62:
// it is refused like any other unreadable checkpoint, the open scans the
// whole log and the next Checkpoint overwrites the file.
const fileCheckpointVersion = 4

// fileCheckpoint is the on-disk snapshot of a FileStore's folded state:
// everything recover would rebuild by scanning the log up to LogOffset, as
// a dictionary plus integer columns. IDs is the entity table's dictionary
// (handle → ID, each string once); every other per-entity field is a
// column aligned with it, and the neighbour lists are handle arrays. Runs
// and RunOffsets are the run order and each run's record offset. encode
// writes the fields as wal columns in declaration order.
type fileCheckpoint struct {
	Version    int
	LogOffset  int64
	Events     int
	Anns       int
	Runs       []string
	RunOffsets []int64

	IDs       []string
	ArtRun    []int32 // index into Runs; noRun: not stored as an artifact
	ExecRun   []int32 // index into Runs; noRun: not stored as an execution
	Gen       []int32 // generator handle, noGen when none
	GenRun    []int32 // index into Runs of the run that set Gen, one per handle that has a generator, in handle order
	Consumers handleLists
	Used      handleLists
	Generated handleLists
}

// handleLists packs one neighbour list per entity: entity h's list is the
// next Lens[h] handles of Refs.
type handleLists struct {
	Lens []int32
	Refs []int32
}

// encode is the checkpoint's payload: its fields in declaration order,
// the string columns front-coded and RunOffsets delta-coded.
func (ck *fileCheckpoint) encode() []byte {
	var w wal.ColumnWriter
	w.Int(int64(ck.Version))
	w.Int(ck.LogOffset)
	w.Int(int64(ck.Events))
	w.Int(int64(ck.Anns))
	w.Strings(ck.Runs)
	w.Offsets(ck.RunOffsets)
	w.Strings(ck.IDs)
	for _, col := range [][]int32{ck.ArtRun, ck.ExecRun, ck.Gen, ck.GenRun} {
		w.Ints(col)
	}
	for _, p := range []*handleLists{&ck.Consumers, &ck.Used, &ck.Generated} {
		w.Ints(p.Lens)
		w.Ints(p.Refs)
	}
	return w.Bytes()
}

// decodeFileCheckpoint reads a payload encode wrote, refusing another
// version before reading past it and any payload that is not exactly the
// columns encode writes. Whether the columns agree is restore's to check.
func decodeFileCheckpoint(payload []byte) (*fileCheckpoint, bool) {
	r := wal.NewColumnReader(payload)
	ck := &fileCheckpoint{Version: int(r.Int())}
	if ck.Version != fileCheckpointVersion {
		return nil, false
	}
	ck.LogOffset = r.Int()
	ck.Events = int(r.Int())
	ck.Anns = int(r.Int())
	ck.Runs = r.Strings()
	ck.RunOffsets = r.Offsets()
	ck.IDs = r.Strings()
	for _, col := range []*[]int32{&ck.ArtRun, &ck.ExecRun, &ck.Gen, &ck.GenRun} {
		*col = r.Ints()
	}
	for _, p := range []*handleLists{&ck.Consumers, &ck.Used, &ck.Generated} {
		p.Lens = r.Ints()
		p.Refs = r.Ints()
	}
	return ck, r.Err() == nil
}

func (p *handleLists) add(list []int32) {
	p.Lens = append(p.Lens, int32(len(list)))
	p.Refs = append(p.Refs, list...)
}

// snapshotLocked copies the folded state into checkpoint form; the caller
// holds at least a read lock, and the watermark invariant guarantees every
// record below s.size is indexed. The copy is a pass over the table's
// slices; encoding happens after the lock is released.
func (s *FileStore) snapshotLocked() *fileCheckpoint {
	t := s.tab
	n := len(t.ents)
	ck := &fileCheckpoint{
		Version:    fileCheckpointVersion,
		LogOffset:  s.size,
		Events:     s.nEvents,
		Anns:       s.nAnns,
		Runs:       slices.Clone(s.order),
		RunOffsets: make([]int64, len(s.order)),
		IDs:        make([]string, n),
		ArtRun:     make([]int32, n),
		ExecRun:    make([]int32, n),
		Gen:        make([]int32, n),
	}
	for i, id := range s.order {
		ck.RunOffsets[i] = s.offsets[id]
	}
	for h := range t.ents {
		e := &t.ents[h]
		ck.IDs[h] = e.id
		ck.ArtRun[h] = e.artRun
		ck.ExecRun[h] = e.execRun
		ck.Gen[h] = e.gen[0]
		if e.gen[0] != noGen {
			ck.GenRun = append(ck.GenRun, e.genRun)
		}
		ck.Consumers.add(e.consumers)
		ck.Used.add(e.used)
		ck.Generated.add(e.generated)
	}
	return ck
}

// restore installs a decoded checkpoint as the store's folded state,
// reporting false — and leaving the store untouched — unless the payload
// is something snapshotLocked could have produced: the right version,
// columns of one length, distinct IDs, every run index and handle in
// range, one generating run per generator and none later than the
// artifact's last declaration (a generation event names an artifact its own
// run declares), every list sorted by ID without duplicates. The CRC already
// rules out torn bytes; these checks rule out a snapshot from a build
// with other invariants, which would otherwise surface as a panic or a
// wrong answer long after open.
func (s *FileStore) restore(ck *fileCheckpoint) bool {
	nRuns, n := len(ck.Runs), len(ck.IDs)
	if ck.Version != fileCheckpointVersion || ck.LogOffset < 0 || ck.Events < 0 || ck.Anns < 0 ||
		len(ck.RunOffsets) != nRuns || len(ck.ArtRun) != n || len(ck.ExecRun) != n || len(ck.Gen) != n {
		return false
	}
	offsets := make(map[string]int64, nRuns)
	for i, id := range ck.Runs {
		off := ck.RunOffsets[i]
		if id == "" || off < 0 || off >= ck.LogOffset || (i > 0 && off <= ck.RunOffsets[i-1]) {
			return false
		}
		offsets[id] = off
	}
	if len(offsets) != nRuns {
		return false
	}

	t := &entityTable{handles: make(map[string]int32, n), ents: make([]entity, n)}
	genRuns := ck.GenRun
	for h, id := range ck.IDs {
		e := &t.ents[h]
		*e = entity{id: id, artRun: ck.ArtRun[h], execRun: ck.ExecRun[h], gen: [1]int32{ck.Gen[h]}}
		if e.artRun < noRun || int(e.artRun) >= nRuns || e.execRun < noRun || int(e.execRun) >= nRuns ||
			e.gen[0] < noGen || int(e.gen[0]) >= n {
			return false
		}
		if e.gen[0] != noGen {
			if len(genRuns) == 0 || genRuns[0] < 0 || genRuns[0] > e.artRun {
				return false
			}
			e.genRun, genRuns = genRuns[0], genRuns[1:]
		}
		if e.artRun != noRun {
			t.nArt++
		}
		if e.execRun != noRun {
			t.nExec++
		}
		t.handles[id] = int32(h)
	}
	if len(t.handles) != n || len(genRuns) != 0 {
		return false // a dictionary duplicate, or generating runs without a generator
	}
	ok := t.unpack(&ck.Consumers, func(e *entity) *[]int32 { return &e.consumers }) &&
		t.unpack(&ck.Used, func(e *entity) *[]int32 { return &e.used }) &&
		t.unpack(&ck.Generated, func(e *entity) *[]int32 { return &e.generated })
	if !ok {
		return false
	}

	s.offsets, s.order, s.tab = offsets, ck.Runs, t
	s.nEvents, s.nAnns = ck.Events, ck.Anns
	return true
}

// unpack hands every entity its list out of p, checking the packing and
// each list's order. The lists alias p.Refs, each capped to its own length
// so a later insert reallocates instead of overwriting its neighbour.
func (t *entityTable) unpack(p *handleLists, field func(*entity) *[]int32) bool {
	if len(p.Lens) != len(t.ents) {
		return false
	}
	at := 0
	for h, n := range p.Lens {
		if n < 0 || int(n) > len(p.Refs)-at {
			return false
		}
		if n == 0 {
			continue
		}
		list := p.Refs[at : at+int(n) : at+int(n)]
		at += int(n)
		for i, ref := range list {
			if ref < 0 || int(ref) >= len(t.ents) {
				return false
			}
			if i > 0 && t.ents[list[i-1]].id >= t.ents[ref].id {
				return false
			}
		}
		*field(&t.ents[h]) = list
	}
	return at == len(p.Refs)
}
