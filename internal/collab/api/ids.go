package api

import (
	"encoding/json"
	"maps"
	"slices"
	"strings"
)

// The ID-list codec: the two answer shapes of the closure read surface,
// []string (/v1/lineage, /v1/dependents) and map[string][]string
// (/v1/expand), without reflection. AppendIDList and AppendIDMap write
// exactly the bytes json.Encoder writes for the value — HTML escaping on,
// map keys sorted, null for nil, the trailing newline. parseIDList and
// parseIDMap read back what the append functions write for plain IDs and
// hand every other body whole to json.Unmarshal, so every decoded value
// and every error is encoding/json's. FuzzIDList holds both halves to
// encoding/json.

// plain marks the bytes that stand for themselves inside a JSON string as
// json.Marshal writes it: printable ASCII except the quote, the backslash
// and the three bytes HTML escaping rewrites.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// appendID appends id as a JSON string: a plain ID verbatim between
// quotes, any other through json.Marshal.
func appendID(dst []byte, id string) []byte {
	for i := 0; i < len(id); i++ {
		if !plain[id[i]] {
			b, _ := json.Marshal(id) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, id...)
	return append(dst, '"')
}

func appendList(dst []byte, ids []string) []byte {
	if ids == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendID(dst, id)
	}
	return append(dst, ']')
}

// AppendIDList appends ids as json.Encoder's Encode writes them.
func AppendIDList(dst []byte, ids []string) []byte {
	return append(appendList(dst, ids), '\n')
}

// AppendIDMap appends adj as json.Encoder's Encode writes it.
func AppendIDMap(dst []byte, adj map[string][]string) []byte {
	if adj == nil {
		return append(dst, "null\n"...)
	}
	dst = append(dst, '{')
	for i, k := range slices.Sorted(maps.Keys(adj)) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendID(dst, k)
		dst = append(dst, ':')
		dst = appendList(dst, adj[k])
	}
	return append(dst, "}\n"...)
}

// parseIDList decodes body as json.Unmarshal decodes it into a []string.
// The IDs of a body the append functions could have written are slices of
// body, sharing its memory; only other bodies are copied.
func parseIDList(body string) ([]string, error) {
	p := idParser{s: strings.TrimSuffix(body, "\n")}
	ids, null, ok := p.list(make([]string, 0, strings.Count(p.s, `"`)/2))
	if ok && p.i == len(p.s) {
		if null {
			return nil, nil
		}
		return ids, nil
	}
	var v []string
	err := json.Unmarshal([]byte(body), &v)
	return v, err
}

// parseIDMap decodes body as json.Unmarshal decodes it into a
// map[string][]string, with parseIDList's sharing of body.
func parseIDMap(body string) (map[string][]string, error) {
	p := idParser{s: strings.TrimSuffix(body, "\n")}
	if adj, ok := p.idMap(); ok && p.i == len(p.s) {
		return adj, nil
	}
	var v map[string][]string
	err := json.Unmarshal([]byte(body), &v)
	return v, err
}

// idParser reads the compact JSON the append functions write for plain
// IDs. Each read reports false on anything else; the caller then hands the
// body to json.Unmarshal.
type idParser struct {
	s string
	i int
}

func (p *idParser) eat(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *idParser) null() bool {
	if strings.HasPrefix(p.s[p.i:], "null") {
		p.i += 4
		return true
	}
	return false
}

// id reads a string of plain bytes.
func (p *idParser) id() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	start := p.i
	for p.i < len(p.s) && plain[p.s[p.i]] {
		p.i++
	}
	id := p.s[start:p.i]
	return id, p.eat('"')
}

// list appends the IDs of one list to dst; null reports a JSON null.
func (p *idParser) list(dst []string) (out []string, null, ok bool) {
	if p.null() {
		return dst, true, true
	}
	if !p.eat('[') {
		return dst, false, false
	}
	if p.eat(']') {
		return dst, false, true
	}
	for {
		id, ok := p.id()
		if !ok {
			return dst, false, false
		}
		dst = append(dst, id)
		if p.eat(']') {
			return dst, false, true
		}
		if !p.eat(',') {
			return dst, false, false
		}
	}
}

// idMap reads an object of lists. The lists are carved from one backing
// array, each capped at its own length so that appending to one cannot
// overwrite the next.
func (p *idParser) idMap() (map[string][]string, bool) {
	if p.null() {
		return nil, true
	}
	if !p.eat('{') {
		return nil, false
	}
	// Size hints, exact for a body the append functions wrote unless an
	// ID begins with a colon: a key's closing quote is the only quote a
	// colon follows, and every ID is two quotes.
	keys := strings.Count(p.s, `":`)
	adj := make(map[string][]string, keys)
	flat := make([]string, 0, max(0, strings.Count(p.s, `"`)/2-keys))
	if p.eat('}') {
		return adj, true
	}
	for {
		k, ok := p.id()
		if !ok || !p.eat(':') {
			return nil, false
		}
		from := len(flat)
		var null bool
		if flat, null, ok = p.list(flat); !ok {
			return nil, false
		}
		if null {
			adj[k] = nil
		} else {
			adj[k] = flat[from:len(flat):len(flat)]
		}
		if p.eat('}') {
			return adj, true
		}
		if !p.eat(',') {
			return nil, false
		}
	}
}
