package store

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/provenance"
)

var mRowImageRuns = obs.Default().Gauge("prov_store_row_image_runs", "Runs covered by FileStore row images (ScanRows), summed over the process's open file stores.")

// catchUpStep, when set (by tests), runs after each record a row-image
// catch-up adds, with the image lock held and the store lock released.
var catchUpStep func()

// rowImage is a FileStore's flattening (Rows) of its committed log prefix,
// held in memory so a relational scan reads rows instead of decoding every
// record. Bytes below the fold watermark never change, so nothing in it
// is ever invalidated: it is built by the first ScanRows and each later
// call only catches up on the records folded since, decoding
// [end, watermark) through scanRange. It is neither persisted nor folded
// by PutRunLog, so a store nobody queries relationally never pays for it.
//
// The layout keeps the heap cost small. A run's rows are a run of
// uvarints in data, every field a number: an entity ID is its entity-table
// handle (the fold interned every ID a committed record names), so its
// string is the table's; every other repeated string — run IDs on entity
// rows, types, ports, statuses, modules, agents, workflows, annotation
// subjects, keys and authors — is a code into one dictionary; wallNanos
// and size are zigzag varints. Content hashes and annotation values,
// unique more often than not, are plain strings in strs, one per artifact
// and annotation in row order. A run's own ID is its place in the store's
// order.
type rowImage struct {
	mu     sync.Mutex // serializes catch-ups; guards the fields below
	end    int64      // log bytes covered: [0, end)
	codes  map[string]uint64
	cols   rowCols
	closed bool // the store closed: the image is dropped for good
}

// rowCols is the image's content. Its slices only ever append, so a
// reader copies the headers under rowImage.mu and reads its copy without
// a lock: appends write past the lengths it holds. ents and order are the
// store's entity records and run order as of the copy: an entity's ID and
// a run's place in the order never change once written, and the fold
// writes only other fields of a record, or past the copied lengths.
type rowCols struct {
	runs  int      // runs covered
	data  []byte   // the runs' rows, encoded one run after another
	strs  []string // content hashes and annotation values
	dict  []string // dictionary code -> string
	ents  []entity // entity handle -> record (its id)
	order []string // run index -> run ID
}

// ScanRows implements Store from the row image: it catches the image
// up to the fold watermark, then emits every run it covers without a lock
// and without decoding a record. A run's fields are read in the order
// addRowsLocked wrote them (composite literals evaluate left to right).
func (s *FileStore) ScanRows(fn func(*RunRows) error) error {
	c, err := s.rowSnapshot()
	if err != nil {
		return err
	}
	d := rowReader{data: c.data}
	str := 0
	next := func() string { str++; return c.strs[str-1] }
	var r RunRows
	for i := 0; i < c.runs; i++ {
		r.Run = RunRow{c.order[i], c.dict[d.uint()], c.dict[d.uint()], c.dict[d.uint()], c.dict[d.uint()]}
		r.Executions = r.Executions[:0]
		for n := d.uint(); n > 0; n-- {
			r.Executions = append(r.Executions, ExecRow{c.ents[d.uint()].id, c.dict[d.uint()], c.dict[d.uint()], c.dict[d.uint()], c.dict[d.uint()], d.int()})
		}
		r.Artifacts = r.Artifacts[:0]
		for n := d.uint(); n > 0; n-- {
			r.Artifacts = append(r.Artifacts, ArtifactRow{c.ents[d.uint()].id, c.dict[d.uint()], c.dict[d.uint()], next(), d.int()})
		}
		r.Edges = r.Edges[:0]
		for n := d.uint(); n > 0; n-- {
			r.Edges = append(r.Edges, EdgeRow{d.uint() == 1, c.ents[d.uint()].id, c.ents[d.uint()].id, c.dict[d.uint()]})
		}
		r.Annotations = r.Annotations[:0]
		for n := d.uint(); n > 0; n-- {
			r.Annotations = append(r.Annotations, AnnotationRow{c.dict[d.uint()], c.dict[d.uint()], next(), c.dict[d.uint()]})
		}
		if err := fn(&r); err != nil {
			return err
		}
	}
	return nil
}

// rowReader reads back the varints addRowsLocked wrote.
type rowReader struct {
	data []byte
	at   int
}

func (d *rowReader) uint() uint64 {
	v, n := binary.Uvarint(d.data[d.at:])
	d.at += n
	return v
}

func (d *rowReader) int() int64 {
	v, n := binary.Varint(d.data[d.at:])
	d.at += n
	return v
}

// rowSnapshot catches the row image up to the current fold watermark and
// returns its content. The decode runs outside the store lock; each
// decoded record is added under a read lock held for that record only, so
// an ingest waits at most one record's appends.
func (s *FileStore) rowSnapshot() (rowCols, error) {
	im := &s.rows
	im.mu.Lock()
	defer im.mu.Unlock()
	if im.closed {
		return rowCols{}, fmt.Errorf("store: scan rows: store closed")
	}
	s.mu.RLock()
	end := s.size
	s.mu.RUnlock()
	if im.end < end {
		if im.codes == nil {
			im.codes = map[string]uint64{}
		}
		err := s.scanRange(im.end, end, func(l *provenance.RunLog, next int64) error {
			s.mu.RLock()
			err := s.addRowsLocked(l)
			s.mu.RUnlock()
			if err != nil {
				return err
			}
			im.end = next
			if catchUpStep != nil {
				catchUpStep()
			}
			return nil
		})
		c := &im.cols
		c.data, c.strs, c.dict = trim(c.data), trim(c.strs), trim(c.dict)
		if err != nil {
			return rowCols{}, err
		}
	}
	c := im.cols
	s.mu.RLock()
	c.ents, c.order = s.tab.ents, s.order
	s.mu.RUnlock()
	return c, nil
}

// trim reallocates a column that append left with more than a quarter of
// its capacity unused: the image is resident for the store's lifetime,
// and a column that just grew would otherwise hold up to twice its
// length. Readers keep the array they copied.
func trim[T any](col []T) []T {
	if cap(col)-len(col) <= len(col)/4 {
		return col
	}
	return append(make([]T, 0, len(col)), col...)
}

// addRowsLocked appends one folded record, the next run of the store's
// order, to the image. The caller holds rows.mu and the store's read lock.
func (s *FileStore) addRowsLocked(l *provenance.RunLog) error {
	im := &s.rows
	c := &im.cols
	if c.runs >= len(s.order) || s.order[c.runs] != l.Run.ID {
		return fmt.Errorf("store: row image: record of run %q is not run %d of the order", l.Run.ID, c.runs)
	}
	data, nStrs := c.data, len(c.strs)
	var missing string
	put := func(v uint64) { data = binary.AppendUvarint(data, v) }
	handle := func(id string) {
		h, ok := s.tab.handles[id]
		if !ok {
			missing = id
		}
		put(uint64(h))
	}
	code := func(v string) {
		k, ok := im.codes[v]
		if !ok {
			k = uint64(len(c.dict))
			im.codes[v] = k
			c.dict = append(c.dict, v)
		}
		put(k)
	}
	code(l.Run.WorkflowID)
	code(l.Run.WorkflowHash)
	code(l.Run.Agent)
	code(string(l.Run.Status))
	put(uint64(len(l.Executions)))
	for _, e := range l.Executions {
		handle(e.ID)
		code(e.RunID)
		code(e.ModuleID)
		code(e.ModuleType)
		code(string(e.Status))
		data = binary.AppendVarint(data, e.WallNanos)
	}
	put(uint64(len(l.Artifacts)))
	for _, a := range l.Artifacts {
		handle(a.ID)
		code(a.RunID)
		code(a.Type)
		c.strs = append(c.strs, a.ContentHash)
		data = binary.AppendVarint(data, a.Size)
	}
	edges := 0
	for _, ev := range l.Events {
		if ev.Kind == provenance.EventArtifactUsed || ev.Kind == provenance.EventArtifactGen {
			edges++
		}
	}
	put(uint64(edges))
	for _, ev := range l.Events {
		switch ev.Kind {
		case provenance.EventArtifactUsed:
			put(0)
		case provenance.EventArtifactGen:
			put(1)
		default:
			continue
		}
		handle(ev.ExecutionID)
		handle(ev.ArtifactID)
		code(ev.Port)
	}
	put(uint64(len(l.Annotations)))
	for _, an := range l.Annotations {
		code(an.Subject)
		code(an.Key)
		c.strs = append(c.strs, an.Value)
		code(an.Author)
	}
	if missing != "" {
		// Unreachable while the fold interns every ID a record names. No
		// reader holds what was appended: take the strings back.
		c.strs = c.strs[:nStrs]
		return fmt.Errorf("store: row image: entity %q of run %q is not in the entity table", missing, l.Run.ID)
	}
	c.data = data
	c.runs++
	mRowImageRuns.Add(1)
	return nil
}

// dropRows releases the row image, taking its runs off the gauge.
func (s *FileStore) dropRows() {
	s.rows.mu.Lock()
	defer s.rows.mu.Unlock()
	mRowImageRuns.Add(-int64(s.rows.cols.runs))
	s.rows.codes, s.rows.cols, s.rows.closed = nil, rowCols{}, true
}
