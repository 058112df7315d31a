package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzIDList holds the ID-list codec to encoding/json. For any body, both
// parses give json.Unmarshal's value and its error, or no error where it
// gives none. For IDs cut from the input at a separator byte the input
// chooses, both appends write json.Marshal's bytes and a newline, and the
// parses read them back.
func FuzzIDList(f *testing.F) {
	for _, seed := range []string{
		"null\n", "[]\n", "{}\n", `["a","b"]` + "\n", `{"a":["b","c"],"d":null,"e":[]}` + "\n",
		`["a",  "b"]`, `["a<b"]`, `["\u2028"]`, "[\"\xff\"]", `{"a":["x"],"a":["y"]}`,
		`[1,"a"]`, `["a",]`, `{"a":["b"]`, "[\"a\"]\n\n", `{"::":[":"]}`, "",
		",a,b<c,d&e,\x00,\xff\xfe,\"q\",\\,\u2028,é",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body := string(data)
		var wantList []string
		errList := json.Unmarshal(data, &wantList)
		gotList, err := parseIDList(body)
		if !sameError(err, errList) || !reflect.DeepEqual(gotList, wantList) {
			t.Fatalf("parseIDList(%q) = %#v, %v; json.Unmarshal: %#v, %v", body, gotList, err, wantList, errList)
		}
		var wantMap map[string][]string
		errMap := json.Unmarshal(data, &wantMap)
		gotMap, err := parseIDMap(body)
		if !sameError(err, errMap) || !reflect.DeepEqual(gotMap, wantMap) {
			t.Fatalf("parseIDMap(%q) = %#v, %v; json.Unmarshal: %#v, %v", body, gotMap, err, wantMap, errMap)
		}

		if len(data) == 0 {
			return
		}
		ids := strings.Split(body[1:], body[:1])
		adj := map[string][]string{}
		for i, id := range ids {
			switch i % 3 {
			case 0:
				adj[id] = nil
			case 1:
				adj[id] = []string{}
			default:
				adj[id] = ids[:i]
			}
		}
		for _, v := range []any{ids, ids[:0], []string(nil), adj, map[string][]string{}, map[string][]string(nil)} {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			var got []byte
			var back any
			switch v := v.(type) {
			case []string:
				got = AppendIDList(nil, v)
				back, err = parseIDList(string(got))
			case map[string][]string:
				got = AppendIDMap(nil, v)
				back, err = parseIDMap(string(got))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("append(%#v) = %q, json.Marshal: %q", v, got, want)
			}
			if wantBack := reflect.New(reflect.TypeOf(v)); json.Unmarshal(want, wantBack.Interface()) != nil || err != nil ||
				!reflect.DeepEqual(back, wantBack.Elem().Interface()) {
				t.Fatalf("parse(%q) = %#v, %v; want json.Unmarshal's %#v", got, back, err, wantBack.Elem().Interface())
			}
		}
	})
}

// sameError reports whether two errors are both nil or say the same.
func sameError(a, b error) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// The fast parse takes every body the appends write for plain IDs, and its
// IDs are slices of the body: one string, not one copy per ID.
func TestParseIDsShareTheBody(t *testing.T) {
	ids := []string{"art-000001", "exec-000002", "run-3:x"}
	body := string(AppendIDList(nil, ids))
	got, err := parseIDList(body)
	if err != nil || !reflect.DeepEqual(got, ids) {
		t.Fatalf("parseIDList(%q) = %v, %v", body, got, err)
	}
	adj := map[string][]string{"a": ids, "b": nil, "c": {}, ":d": ids[1:]}
	mbody := string(AppendIDMap(nil, adj))
	gotMap, err := parseIDMap(mbody)
	if err != nil || !reflect.DeepEqual(gotMap, adj) {
		t.Fatalf("parseIDMap(%q) = %v, %v", mbody, gotMap, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = parseIDList(body) }); n != 1 {
		t.Errorf("parseIDList: %v allocations, want 1 (the result slice)", n)
	}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = AppendIDList(buf[:0], ids) }); n != 0 {
		t.Errorf("AppendIDList: %v allocations into a buffer with room, want 0", n)
	}
}
