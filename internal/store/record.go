package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/provenance"
)

// The log record codec. A record is the JSON of one *provenance.RunLog, as
// json.Marshal writes it, and a newline; encodeRecord writes exactly that,
// so the bytes on disk and on the replication wire are encoding/json's.
// decodeRecord reads them back without reflection: a forward pass that
// accepts only what json.Marshal can write for a RunLog (any field order,
// insignificant whitespace, every escape) and hands every other input —
// unknown, case-folded or repeated keys, null where Marshal writes none,
// non-integer numbers, malformed bytes — to json.Unmarshal whole. Every
// decoded value and every error is therefore encoding/json's, which the
// differential fuzz target FuzzDecodeRecord holds it to.

// errNoRunID rejects a record that decodes without a run ID: the store
// indexes records by it, so such a record ends the valid log.
var errNoRunID = errors.New("record without run ID")

// encodeRecord renders l as one newline-terminated log record.
func encodeRecord(l *provenance.RunLog) ([]byte, error) {
	data, err := json.Marshal(l)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// decodeRecord decodes one log record (the trailing newline is optional).
// It fails where json.Unmarshal fails, and on a record without a run ID.
func decodeRecord(line []byte) (*provenance.RunLog, error) {
	l := &provenance.RunLog{}
	if !decodeRecordFast(line, l) {
		l = &provenance.RunLog{}
		if err := json.Unmarshal(line, l); err != nil {
			return nil, err
		}
	}
	if l.Run.ID == "" {
		return nil, errNoRunID
	}
	return l, nil
}

// decodeRecordFast is decodeRecord's reflection-free path. It reports false
// on any input json.Marshal would not write for a RunLog, leaving l
// partially filled; when it reports true, l equals what json.Unmarshal
// decodes from line.
func decodeRecordFast(line []byte, l *provenance.RunLog) bool {
	d := recordDecoder{b: line}
	return d.runLog(l)
}

// recordDecoder holds the position of one fast-path decode. A refusal is
// sticky: fail moves the position to the end, so every later read finds
// no token and every loop ends.
type recordDecoder struct {
	b     []byte
	i     int
	bad   bool
	runID string // the run's ID once read: runId fields equal to it share it
	buf   []byte // unescaped string bytes, reused across strings
}

func (d *recordDecoder) fail() {
	d.bad = true
	d.i = len(d.b)
}

// peek skips insignificant whitespace and returns the next byte, 0 at the
// end of the input.
func (d *recordDecoder) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next token.
func (d *recordDecoder) eat(c byte) bool {
	if d.peek() == c {
		d.i++
		return true
	}
	return false
}

func (d *recordDecoder) expect(c byte) {
	if !d.eat(c) {
		d.fail()
	}
}

// null consumes a null literal if it is the next token.
func (d *recordDecoder) null() bool {
	if d.peek() == 'n' && len(d.b)-d.i >= 4 && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

// more moves to the n-th member of the object or element of the array
// whose opening byte has been read, consuming the separator before it; it
// reports false, having consumed end, when the container closes instead.
func (d *recordDecoder) more(n int, end byte) bool {
	if n == 0 {
		return !d.eat(end)
	}
	if d.eat(',') {
		return true
	}
	d.expect(end)
	return false
}

// key reads a field name and its colon. Field names are plain ASCII, so a
// name with an escape or a non-ASCII byte is refused: it cannot name a
// RunLog field exactly, and encoding/json resolves the rest.
func (d *recordDecoder) key() []byte {
	if !d.eat('"') {
		d.fail()
		return nil
	}
	for i := d.i; i < len(d.b); i++ {
		if c := d.b[i]; c == '"' {
			k := d.b[d.i:i]
			d.i = i + 1
			d.expect(':')
			return k
		} else if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
	}
	d.fail()
	return nil
}

// once marks field bit of an object as read, refusing a repeated key:
// encoding/json merges a repeat into the first value.
func (d *recordDecoder) once(seen *uint16, bit uint) {
	if *seen&(1<<bit) != 0 {
		d.fail()
	}
	*seen |= 1 << bit
}

// plain marks the string bytes that stand for themselves in ASCII.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// text reads a string and returns its unescaped bytes, which alias the
// record or the decoder's buffer and hold only until the next read.
// Invalid UTF-8 is refused: encoding/json replaces it, Marshal never
// writes it.
func (d *recordDecoder) text() []byte {
	if !d.eat('"') {
		d.fail()
		return nil
	}
	b, start := d.b, d.i
	ascii := true
	for i := start; i < len(b); i++ {
		c := b[i]
		if plain[c] {
			continue
		}
		if c >= utf8.RuneSelf {
			ascii = false
			continue
		}
		if c == '\\' {
			return d.unescape(start, i)
		}
		if c == '"' && (ascii || utf8.Valid(b[start:i])) {
			d.i = i + 1
			return b[start:i]
		}
		break
	}
	d.fail()
	return nil
}

// unescape finishes a string whose first escape is at b[i], copying it
// into the decoder's buffer.
func (d *recordDecoder) unescape(start, i int) []byte {
	b := d.b
	out := append(d.buf[:0], b[start:i]...)
	for i < len(b) {
		c := b[i]
		if plain[c] || c >= utf8.RuneSelf {
			j := i + 1
			for j < len(b) && (plain[b[j]] || b[j] >= utf8.RuneSelf) {
				j++
			}
			out = append(out, b[i:j]...)
			i = j
			continue
		}
		if c == '"' {
			d.buf = out
			if !utf8.Valid(out) {
				break
			}
			d.i = i + 1
			return out
		}
		if c != '\\' || i+1 == len(b) {
			break
		}
		n := 2
		switch e := b[i+1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := hex4(b[i+2:])
			n = 6
			if utf16.IsSurrogate(r) {
				// Only a high surrogate escaped just before a low one is a
				// character; encoding/json replaces a lone one.
				low := rune(-1)
				if len(b) >= i+8 && b[i+6] == '\\' && b[i+7] == 'u' {
					low = hex4(b[i+8:])
				}
				if r, n = utf16.DecodeRune(r, low), 12; r == utf8.RuneError {
					r = -1
				}
			}
			if r < 0 {
				d.fail()
				return nil
			}
			out = utf8.AppendRune(out, r)
		default:
			d.fail()
			return nil
		}
		i += n
	}
	d.fail()
	return nil
}

// hex4 parses the four hex digits at the start of b, -1 when they are not
// there.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// str reads a string into its own allocation: no decoded string shares
// memory with the record or with another string, so an ID the entity table
// keeps pins nothing else.
func (d *recordDecoder) str() string { return string(d.text()) }

// runRef reads a runId field, sharing the run's own ID when it matches.
func (d *recordDecoder) runRef() string {
	if t := d.text(); string(t) != d.runID {
		return string(t)
	}
	return d.runID
}

// oneOf reads a string, returning the element of known it equals, or a
// copy when it equals none.
func oneOf[S ~string](d *recordDecoder, known []S) S {
	t := d.text()
	for _, k := range known {
		if string(t) == string(k) {
			return k
		}
	}
	return S(t)
}

var (
	eventKinds = []provenance.EventKind{
		provenance.EventRunStarted, provenance.EventRunEnded, provenance.EventExecutionStarted,
		provenance.EventExecutionEnded, provenance.EventArtifactUsed, provenance.EventArtifactGen,
		provenance.EventAnnotation,
	}
	statuses = []provenance.ExecStatus{
		provenance.StatusOK, provenance.StatusFailed, provenance.StatusSkipped, provenance.StatusCached,
	}
	entityKinds = []provenance.EntityKind{
		provenance.KindArtifact, provenance.KindExecution, provenance.KindRun, provenance.KindAgent,
	}
)

// digits reads an unsigned JSON integer, refusing a fraction, an exponent
// and a value above limit: encoding/json fails to store those in an
// integer field.
func (d *recordDecoder) digits(limit uint64) uint64 {
	b, i := d.b, d.i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		c := uint64(b[i] - '0')
		if v > (limit-c)/10 {
			d.fail()
			return 0
		}
		v = v*10 + c
	}
	n := i - d.i
	if n == 0 || n > 1 && b[d.i] == '0' || i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		d.fail()
		return 0
	}
	d.i = i
	return v
}

func (d *recordDecoder) unsigned() uint64 {
	d.peek()
	return d.digits(math.MaxUint64)
}

func (d *recordDecoder) signed() int64 {
	if d.peek() == '-' {
		d.i++
		return -int64(d.digits(-math.MinInt64))
	}
	return int64(d.digits(math.MaxInt64))
}

// strMap reads a map[string]string: nil for null, as encoding/json does,
// and a non-nil map for {}. A repeated key keeps its last value, also as
// encoding/json does.
func (d *recordDecoder) strMap() map[string]string {
	if d.null() {
		return nil
	}
	d.expect('{')
	m := map[string]string{}
	for n := 0; d.more(n, '}'); n++ {
		k := d.str()
		d.expect(':')
		m[k] = d.str()
	}
	return m
}

func (d *recordDecoder) runLog(l *provenance.RunLog) bool {
	d.expect('{')
	var seen uint16
	for n := 0; d.more(n, '}'); n++ {
		switch string(d.key()) {
		case "run":
			d.once(&seen, 0)
			d.run(&l.Run)
		case "executions":
			d.once(&seen, 1)
			l.Executions = pointers(array(d, 0, (*recordDecoder).execution))
		case "artifacts":
			d.once(&seen, 2)
			l.Artifacts = pointers(array(d, 0, (*recordDecoder).artifact))
		case "events":
			d.once(&seen, 3)
			// Sized once, exactly on json.Marshal's output: every event
			// opens with {"seq":, no object after the events array does,
			// and a quote inside a string is always escaped.
			l.Events = array(d, bytes.Count(d.b[d.i:], []byte(`{"seq":`)), (*recordDecoder).event)
		case "annotations":
			d.once(&seen, 4)
			l.Annotations = array(d, 0, (*recordDecoder).annotation)
		default:
			d.fail()
		}
	}
	d.peek()
	return !d.bad && d.i == len(d.b)
}

// array reads an array of objects, elem reading each: nil for null and a
// non-nil slice for [], as encoding/json decodes them, and a null element
// refused. n is the capacity of the slice's first allocation.
func array[T any](d *recordDecoder, n int, elem func(*recordDecoder, *T)) []T {
	if d.null() {
		return nil
	}
	d.expect('[')
	out := make([]T, 0, n)
	for i := 0; d.more(i, ']'); i++ {
		var zero T
		out = append(out, zero)
		elem(d, &out[i])
	}
	return out
}

// pointers returns the addresses of vals' elements, nil for nil: the
// elements of a []*Execution or []*Artifact share one backing array
// rather than taking an allocation each.
func pointers[T any](vals []T) []*T {
	if vals == nil {
		return nil
	}
	out := make([]*T, len(vals))
	for i := range vals {
		out[i] = &vals[i]
	}
	return out
}

func (d *recordDecoder) run(r *provenance.Run) {
	d.expect('{')
	var seen uint16
	for n := 0; d.more(n, '}'); n++ {
		switch string(d.key()) {
		case "id":
			d.once(&seen, 0)
			r.ID = d.str()
			d.runID = r.ID
		case "workflowId":
			d.once(&seen, 1)
			r.WorkflowID = d.str()
		case "workflowHash":
			d.once(&seen, 2)
			r.WorkflowHash = d.str()
		case "agent":
			d.once(&seen, 3)
			r.Agent = d.str()
		case "start":
			d.once(&seen, 4)
			r.Start = d.unsigned()
		case "end":
			d.once(&seen, 5)
			r.End = d.unsigned()
		case "status":
			d.once(&seen, 6)
			r.Status = oneOf(d, statuses)
		case "environment":
			d.once(&seen, 7)
			r.Environment = d.strMap()
		case "annotations":
			d.once(&seen, 8)
			r.Annotations = d.strMap()
		default:
			d.fail()
		}
	}
}

func (d *recordDecoder) execution(e *provenance.Execution) {
	d.expect('{')
	var seen uint16
	for n := 0; d.more(n, '}'); n++ {
		switch string(d.key()) {
		case "id":
			d.once(&seen, 0)
			e.ID = d.str()
		case "runId":
			d.once(&seen, 1)
			e.RunID = d.runRef()
		case "moduleId":
			d.once(&seen, 2)
			e.ModuleID = d.str()
		case "moduleType":
			d.once(&seen, 3)
			e.ModuleType = d.str()
		case "params":
			d.once(&seen, 4)
			e.Params = d.strMap()
		case "start":
			d.once(&seen, 5)
			e.Start = d.unsigned()
		case "end":
			d.once(&seen, 6)
			e.End = d.unsigned()
		case "wallNanos":
			d.once(&seen, 7)
			e.WallNanos = d.signed()
		case "status":
			d.once(&seen, 8)
			e.Status = oneOf(d, statuses)
		case "error":
			d.once(&seen, 9)
			e.Error = d.str()
		case "machine":
			d.once(&seen, 10)
			e.Machine = d.str()
		default:
			d.fail()
		}
	}
}

func (d *recordDecoder) artifact(a *provenance.Artifact) {
	d.expect('{')
	var seen uint16
	for n := 0; d.more(n, '}'); n++ {
		switch string(d.key()) {
		case "id":
			d.once(&seen, 0)
			a.ID = d.str()
		case "type":
			d.once(&seen, 1)
			a.Type = d.str()
		case "contentHash":
			d.once(&seen, 2)
			a.ContentHash = d.str()
		case "size":
			d.once(&seen, 3)
			a.Size = d.signed()
		case "preview":
			d.once(&seen, 4)
			a.Preview = d.str()
		case "runId":
			d.once(&seen, 5)
			a.RunID = d.runRef()
		case "annotations":
			d.once(&seen, 6)
			a.Annotations = d.strMap()
		default:
			d.fail()
		}
	}
}

func (d *recordDecoder) event(ev *provenance.Event) {
	d.expect('{')
	var seen uint16
	for n := 0; d.more(n, '}'); n++ {
		switch string(d.key()) {
		case "seq":
			d.once(&seen, 0)
			ev.Seq = d.unsigned()
		case "runId":
			d.once(&seen, 1)
			ev.RunID = d.runRef()
		case "kind":
			d.once(&seen, 2)
			ev.Kind = oneOf(d, eventKinds)
		case "executionId":
			d.once(&seen, 3)
			ev.ExecutionID = d.str()
		case "artifactId":
			d.once(&seen, 4)
			ev.ArtifactID = d.str()
		case "port":
			d.once(&seen, 5)
			ev.Port = d.str()
		case "subject":
			d.once(&seen, 6)
			ev.Subject = d.str()
		case "key":
			d.once(&seen, 7)
			ev.Key = d.str()
		case "value":
			d.once(&seen, 8)
			ev.Value = d.str()
		default:
			d.fail()
		}
	}
}

func (d *recordDecoder) annotation(a *provenance.Annotation) {
	d.expect('{')
	var seen uint16
	for n := 0; d.more(n, '}'); n++ {
		switch string(d.key()) {
		case "subject":
			d.once(&seen, 0)
			a.Subject = d.str()
		case "Kind":
			d.once(&seen, 1)
			a.Kind = oneOf(d, entityKinds)
		case "key":
			d.once(&seen, 2)
			a.Key = d.str()
		case "value":
			d.once(&seen, 3)
			a.Value = d.str()
		case "author":
			d.once(&seen, 4)
			a.Author = d.str()
		case "seq":
			d.once(&seen, 5)
			a.Seq = d.unsigned()
		default:
			d.fail()
		}
	}
}
