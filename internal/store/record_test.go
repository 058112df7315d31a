package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/provenance"
)

// shapedRun is a run shaped like one of the serving benchmark's four run
// families — chain (one execution, one input), fanin (one execution, eight
// inputs), diamond (eight executions) and fmri (fifteen executions) —
// about 1.3, 3.2, 7.8 and 14.3 KB marshalled.
func shapedRun(family, index int) *provenance.RunLog {
	execs := [...]int{1, 1, 8, 15}[family]
	ins := [...]int{1, 8, 1, 1}[family]
	tag := fmt.Sprintf("k3x9q-%c%d-%d", "cfdm"[family], index%7, index)
	id := "r-" + tag
	l := &provenance.RunLog{
		Run: provenance.Run{
			ID: id, WorkflowID: "wf-" + tag[6:7], WorkflowHash: fmt.Sprintf("%016x", 0x9e3779b97f4a7c15*uint64(family+1)),
			Agent: fmt.Sprintf("agent-%d", index%8), Status: provenance.StatusOK,
		},
		Annotations: []provenance.Annotation{},
	}
	var seq uint64
	event := func(ev provenance.Event) {
		seq++
		ev.Seq, ev.RunID = seq, id
		l.Events = append(l.Events, ev)
	}
	artifact := func(aid, typ string) {
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{
			ID: aid, Type: typ, RunID: id, ContentHash: fmt.Sprintf("%016x", len(l.Artifacts)*7919+index),
			Size: int64(1024 + (index*131+len(l.Artifacts))%(1<<20)),
		})
	}
	event(provenance.Event{Kind: provenance.EventRunStarted})
	l.Run.Start = seq
	for j := 0; j < execs; j++ {
		eid := fmt.Sprintf("e-%s-%d", tag, j)
		e := &provenance.Execution{
			ID: eid, RunID: id, ModuleID: fmt.Sprintf("m%d", j), ModuleType: "AlignWarp",
			Status: provenance.StatusOK, Machine: fmt.Sprintf("node-%d", j%4), WallNanos: int64(1e6 + j*7919),
		}
		if j%3 == 0 {
			e.Params = map[string]string{"epoch": fmt.Sprint(index), "lr": "0.0042"}
		}
		if family == 2 && j == 5 {
			e.Status, e.Error = provenance.StatusFailed, "synthetic failure"
			l.Run.Status = provenance.StatusFailed
		}
		l.Executions = append(l.Executions, e)
		event(provenance.Event{Kind: provenance.EventExecutionStarted, ExecutionID: eid})
		e.Start = seq
		for k := 0; k < ins; k++ {
			aid := fmt.Sprintf("a-%s-%d-in%d", tag, j, k)
			artifact(aid, "checkpoint")
			event(provenance.Event{Kind: provenance.EventArtifactUsed, ExecutionID: eid, ArtifactID: aid, Port: fmt.Sprintf("in%d", k)})
		}
		aid := fmt.Sprintf("a-%s-%d-out", tag, j)
		artifact(aid, "reslicedImage")
		event(provenance.Event{Kind: provenance.EventArtifactGen, ExecutionID: eid, ArtifactID: aid, Port: "out0"})
		event(provenance.Event{Kind: provenance.EventExecutionEnded, ExecutionID: eid})
		e.End = seq
	}
	event(provenance.Event{Kind: provenance.EventRunEnded})
	l.Run.End = seq
	return l
}

// edgeRuns are the run logs whose JSON exercises every corner of what
// json.Marshal writes for a RunLog.
func edgeRuns() []*provenance.RunLog {
	awkward := "q\"uote \\back /slash \x00\x01\x1f\t\n\r\b\f <html>&amp; \u2028\u2029 é 中文 😀 \x7f"
	invalid := "bad \xff\xfe utf8 \xc3"
	full := shapedRun(3, 1)
	full.Run.WorkflowID = awkward
	full.Run.Agent = invalid
	full.Run.Environment = map[string]string{awkward: invalid, "": "", "k": awkward}
	full.Run.Annotations = map[string]string{"<&>": " "}
	full.Executions[0].Params = map[string]string{"p": awkward}
	full.Executions[0].Error = invalid
	full.Executions[1].Params = map[string]string{}
	full.Artifacts[0].Preview = awkward
	full.Artifacts[0].Annotations = map[string]string{"x": "y"}
	full.Artifacts[1].Annotations = map[string]string{}
	full.Events[1].Subject, full.Events[1].Key, full.Events[1].Value = awkward, "k", invalid
	full.Events[2].Kind = "customKind"
	full.Annotations = append(full.Annotations,
		provenance.Annotation{Subject: awkward, Kind: provenance.KindArtifact, Key: "k", Value: invalid, Author: "é", Seq: math.MaxUint64},
		provenance.Annotation{Subject: "s", Kind: "customEntity"})

	extremes := synthRun("run-extremes", []string{"in"}, []string{"out"})
	extremes.Run.Start, extremes.Run.End = 0, math.MaxUint64
	extremes.Executions[0].WallNanos = math.MinInt64
	extremes.Executions[0].Start, extremes.Executions[0].End = math.MaxUint64, math.MaxUint64
	extremes.Artifacts[0].Size = math.MaxInt64
	extremes.Artifacts[1].Size = math.MinInt64
	extremes.Events[0].Seq = math.MaxUint64
	extremes.Executions[0].Status = "weird-status"

	otherRun := synthRun("run-other", nil, []string{"o"})
	otherRun.Executions[0].RunID = "run-elsewhere" // a runId that is not the run's own
	otherRun.Artifacts[0].RunID = ""

	empties := &provenance.RunLog{
		Run:         provenance.Run{ID: "run-empties", Environment: map[string]string{}, Annotations: map[string]string{}},
		Executions:  []*provenance.Execution{},
		Artifacts:   []*provenance.Artifact{},
		Events:      []provenance.Event{},
		Annotations: []provenance.Annotation{},
	}
	return []*provenance.RunLog{
		{Run: provenance.Run{ID: "r0"}}, // header only: null slices, every omitempty field unset
		empties,
		{Run: provenance.Run{ID: "run-zero-elems"}, Executions: []*provenance.Execution{{}}, Artifacts: []*provenance.Artifact{{}}, Events: []provenance.Event{{}}, Annotations: []provenance.Annotation{{}}},
		full, extremes, otherRun,
		shapedRun(0, 3), shapedRun(1, 4), shapedRun(2, 5), shapedRun(3, 6),
		paddedRun("run-padded", 2<<10),
	}
}

func marshalLine(t testing.TB, l *provenance.RunLog) []byte {
	t.Helper()
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func jsonDecode(line []byte) (*provenance.RunLog, error) {
	l := &provenance.RunLog{}
	return l, json.Unmarshal(line, l)
}

// TestDecodeRecordFastPathCoversMarshal holds the fast path to everything
// json.Marshal writes: it must accept each record itself, not hand it to
// encoding/json, and decode it to json.Unmarshal's value. A fast path
// that punted on escapes, non-ASCII text or extreme integers fails here.
func TestDecodeRecordFastPathCoversMarshal(t *testing.T) {
	for _, l := range edgeRuns() {
		line := marshalLine(t, l)
		want, err := jsonDecode(line)
		if err != nil {
			t.Fatal(err)
		}
		got := &provenance.RunLog{}
		if !decodeRecordFast(line, got) {
			t.Fatalf("fast path refused json.Marshal output of %s: %s", l.Run.ID, line)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path decoded %s as\n%+v\nencoding/json as\n%+v", l.Run.ID, got, want)
		}
		// Without its newline, and with whitespace where JSON allows it.
		if !decodeRecordFast(line[:len(line)-1], &provenance.RunLog{}) {
			t.Fatalf("fast path refused %s without its newline", l.Run.ID)
		}
		var spaced bytes.Buffer
		if err := json.Indent(&spaced, line, " \r", "\t"); err != nil {
			t.Fatal(err)
		}
		got = &provenance.RunLog{}
		if !decodeRecordFast(spaced.Bytes(), got) || !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path refused or misread indented %s", l.Run.ID)
		}
	}
}

// refusedRecords are inputs json.Marshal never writes for a RunLog, each
// one the fast path must leave to encoding/json.
var refusedRecords = []string{
	`{"run":{"id":"r"},"extra":{"a":[1,2]}}`,                        // unknown key
	`{"RUN":{"id":"r"}}`,                                            // case-folded key
	`{"run":{"id":"r","id":"s"}}`,                                   // repeated key
	`{"run":{"id":"r"},"run":{"agent":"a"}}`,                        // repeated key, merged
	`{"run":{"id":"r"},"executions":[null]}`,                        // null element
	`{"run":{"id":"r"},"events":[null]}`,                            // null element
	`{"run":{"id":"r","start":1.0}}`,                                // fraction
	`{"run":{"id":"r","start":1e3}}`,                                // exponent
	`{"run":{"id":"r","start":-0}}`,                                 // negative unsigned
	`{"run":{"id":"r","start":18446744073709551616}}`,               // overflow
	`{"run":{"id":"r"},"artifacts":[{"size":9223372036854775808}]}`, // overflow
	`{"run":{"id":"r","start":01}}`,                                 // leading zero
	`{"run":{"id":"r","agent":null}}`,                               // null string
	`{"run":null}`,                                                  // null struct
	`{"run":{"id":"r\ud800"}}`,                                      // lone surrogate
	`{"run":{"id":"r\udc00\ud800"}}`,                                // reversed pair
	"{\"run\":{\"id\":\"r\xff\"}}",                                  // invalid UTF-8
	"{\"run\":{\"id\":\"r\x01\"}}",                                  // raw control byte
	`{"run":{"id":"r\x"}}`,                                          // bad escape
	`{"run":{"id":"r"}} x`,                                          // trailing bytes
	`{"run":{"id":"r"},}`,                                           // trailing comma
	`{"run":{"id":"r"}`,                                             // unterminated
	`{"run":{"id":"r","environment":{"a":1}}}`,                      // wrong value type
	`[]`, `null`, ``, "\n",
}

// TestDecodeRecordRefusesWhatMarshalNeverWrites checks that input outside
// json.Marshal's output leaves the fast path for encoding/json, whose
// value or error decodeRecord then returns.
func TestDecodeRecordRefusesWhatMarshalNeverWrites(t *testing.T) {
	for _, rec := range refusedRecords {
		if decodeRecordFast([]byte(rec), &provenance.RunLog{}) {
			t.Errorf("fast path accepted %q", rec)
		}
		matchesJSON(t, []byte(rec))
	}
}

// matchesJSON checks decodeRecord against json.Unmarshal on one input: it
// fails exactly when encoding/json fails, with encoding/json's error, or
// decodes no run ID, and otherwise returns a deep-equal value.
func matchesJSON(t *testing.T, line []byte) {
	t.Helper()
	want, werr := jsonDecode(line)
	got, err := decodeRecord(line)
	if wantErr := werr != nil || want.Run.ID == ""; (err != nil) != wantErr {
		t.Fatalf("decodeRecord(%q) error %v; encoding/json error %v, run ID %q", line, err, werr, want.Run.ID)
	}
	if werr != nil && err.Error() != werr.Error() {
		t.Fatalf("decodeRecord(%q) error %q, encoding/json's is %q", line, err, werr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeRecord(%q) = %+v\nencoding/json = %+v", line, got, want)
	}
}

// TestEncodeRecordIsMarshal pins the on-disk format: a record is
// json.Marshal's bytes and a newline.
func TestEncodeRecordIsMarshal(t *testing.T) {
	for _, l := range edgeRuns() {
		got, err := encodeRecord(l)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalLine(t, l); !bytes.Equal(got, want) {
			t.Fatalf("encodeRecord(%s) = %s, json.Marshal writes %s", l.Run.ID, got, want)
		}
	}
}

// TestDecodedStringsOwnTheirBytes checks that no decoded string is a view
// of the record's bytes or a substring of another decoded string: the
// entity table keeps recovered IDs, and a shared backing array would pin
// the whole record. Only the run's own ID and the known kinds and
// statuses are shared, and those are not views of the input.
func TestDecodedStringsOwnTheirBytes(t *testing.T) {
	for _, l := range edgeRuns() {
		line := marshalLine(t, l)
		got, err := decodeRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := jsonDecode(line)
		type span struct{ lo, hi uintptr }
		var spans []span
		walkStrings(reflect.ValueOf(got).Elem(), func(s string) {
			if s == "" {
				return
			}
			lo := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			in := uintptr(unsafe.Pointer(&line[0]))
			if lo >= in && lo < in+uintptr(len(line)) {
				t.Fatalf("%s: decoded %q points into the record buffer", l.Run.ID, s)
			}
			spans = append(spans, span{lo, lo + uintptr(len(s))})
		})
		for i, a := range spans {
			for _, b := range spans[i+1:] {
				if a != b && a.lo < b.hi && b.lo < a.hi {
					t.Fatalf("%s: two decoded strings share bytes", l.Run.ID)
				}
			}
		}
		for i := range line {
			line[i] = 'X'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: overwriting the record buffer changed the decoded log", l.Run.ID)
		}
	}
}

// walkStrings calls fn on every string reachable from v: fields, slice
// elements, pointers, map keys and values.
func walkStrings(v reflect.Value, fn func(string)) {
	switch v.Kind() {
	case reflect.String:
		fn(v.String())
	case reflect.Pointer:
		if !v.IsNil() {
			walkStrings(v.Elem(), fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkStrings(v.Field(i), fn)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			walkStrings(v.Index(i), fn)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			walkStrings(it.Key(), fn)
			walkStrings(it.Value(), fn)
		}
	}
}

// TestFallbackRecordCostsNoLogBytes writes a log holding a record the fast
// path refuses but encoding/json accepts (an unknown key and a case-folded
// one): recovery must keep it and every record after it, and ScanLogs,
// RunLog and a follower applying the log must all return encoding/json's
// value for it.
func TestFallbackRecordCostsNoLogBytes(t *testing.T) {
	odd := `{"RUN":{"id":"run-odd","agent":"a"},"extra":{"a":[1,2]},"executions":[],"events":null}` + "\n"
	if decodeRecordFast([]byte(odd), &provenance.RunLog{}) {
		t.Fatal("the test record must be one the fast path refuses")
	}
	lines := [][]byte{
		marshalLine(t, synthRun("run-a", nil, []string{"x"})),
		[]byte(odd),
		marshalLine(t, synthRun("run-b", []string{"x"}, []string{"y"})),
	}
	log := bytes.Join(lines, nil)
	ref := make([]*provenance.RunLog, len(lines))
	for i, line := range lines {
		var err error
		if ref[i], err = jsonDecode(line); err != nil {
			t.Fatal(err)
		}
	}
	wantOdd := ref[1]

	dir := t.TempDir()
	path := filepath.Join(dir, LogFileName)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !bytes.Equal(mustRead(t, path), log) {
		t.Fatal("recovery changed the log")
	}
	if got := scanAll(t, s, 0); !reflect.DeepEqual(got, ref) {
		t.Fatalf("ScanLogs returned %d logs, want the 3 recovered ones equal to encoding/json's", len(got))
	}
	if got, err := s.RunLog("run-odd"); err != nil || !reflect.DeepEqual(got, wantOdd) {
		t.Fatalf("RunLog(run-odd) = %+v, %v; want %+v", got, err, wantOdd)
	}

	data, _, err := s.ReadCommitted(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	applied, _, err := f.ApplyReplicated(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(applied, ref) {
		t.Fatal("a follower applied the log to logs other than encoding/json's")
	}
	if got, err := f.RunLog("run-odd"); err != nil || !reflect.DeepEqual(got, wantOdd) {
		t.Fatalf("follower RunLog(run-odd) = %+v, %v", got, err)
	}
}

// FuzzDecodeRecord is the codec's differential test against encoding/json
// (matchesJSON), seeded with records of the four run shapes, a header-only
// record, the edge cases of edgeRuns and the refused records.
func FuzzDecodeRecord(f *testing.F) {
	for _, l := range edgeRuns() {
		f.Add(marshalLine(f, l))
	}
	for _, rec := range refusedRecords {
		f.Add([]byte(rec))
	}
	f.Add([]byte(`{"run":{"id":""}}`))
	f.Add([]byte("   {\"run\":{\"id\":\"r😀\\u00e9\"}}\r\n"))
	f.Fuzz(matchesJSON)
}
