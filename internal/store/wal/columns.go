package wal

import (
	"encoding/binary"
	"errors"
	"math"
)

// Checkpoint payloads are columns: a fixed sequence of integers, integer
// arrays and string dictionaries that the owning format writes and reads
// back in the same order. Integers are zigzag uvarints, so small values of
// either sign take one byte. An array is its count, then its elements; an
// offsets array stores each element as the difference from the one before
// it, which keeps increasing file offsets to a byte or two each. A string
// dictionary is front-coded: each entry names one of the dictBack entries
// before it and the length of the prefix it shares with that one (one
// uvarint, shared·dictBack + back), then the length of the rest and the
// rest. Dictionaries keep their owner's order, which interleaves kinds (an
// artifact, its execution, the next artifact), so the entry sharing most
// is often two or three back rather than the one just before.
//
// The payload names no field and has no padding, so a reader has to know
// the format; the owner's first column is its version, and it refuses any
// other before reading on.

// dictBack is how many earlier entries a dictionary entry may share a
// prefix with; with four, a prefix of up to 31 bytes and its choice of
// entry fit one byte.
const dictBack = 4

// maxShared caps the prefix one dictionary entry borrows. An entry of
// three payload bytes then decodes to at most maxShared+1 bytes, so no
// payload decodes to more than about 85 times its own size; IDs that share
// more than this repeat the rest in their suffix.
const maxShared = 255

// errColumns is a reader's sticky error: the payload ended early, a count
// claimed more elements than bytes remain, or a value was out of range.
var errColumns = errors.New("wal: malformed checkpoint columns")

// ColumnWriter appends columns to a payload. The zero value is ready.
type ColumnWriter struct{ buf []byte }

// Bytes returns the payload written so far.
func (w *ColumnWriter) Bytes() []byte { return w.buf }

// Int writes one integer.
func (w *ColumnWriter) Int(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Ints writes an integer array.
func (w *ColumnWriter) Ints(col []int32) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(col)))
	for _, v := range col {
		w.buf = binary.AppendVarint(w.buf, int64(v))
	}
}

// Offsets writes an integer array delta-coded against its previous
// element: compact when increasing, exact whatever the order.
func (w *ColumnWriter) Offsets(col []int64) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(col)))
	var prev int64
	for _, v := range col {
		w.buf = binary.AppendUvarint(w.buf, uint64(v-prev))
		prev = v
	}
}

// Strings writes a front-coded string dictionary.
func (w *ColumnWriter) Strings(col []string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(col)))
	for i, s := range col {
		shared, back := 0, 0
		for k := 0; k < min(i, dictBack); k++ {
			prev, n := col[i-1-k], 0
			for n < min(len(s), len(prev), maxShared) && s[n] == prev[n] {
				n++
			}
			if n > shared {
				shared, back = n, k
			}
		}
		w.buf = binary.AppendUvarint(w.buf, uint64(shared*dictBack+back))
		w.buf = binary.AppendUvarint(w.buf, uint64(len(s)-shared))
		w.buf = append(w.buf, s[shared:]...)
	}
}

// ColumnReader reads a payload's columns in the order they were written.
// The first malformed column makes every later read return a zero value
// and Err report it, so a decoder reads all its columns and checks once.
// No count is trusted beyond the bytes that remain, so a corrupt count
// costs no allocation larger than a small multiple of the payload.
type ColumnReader struct {
	b   []byte
	err error
}

// NewColumnReader reads the columns of payload.
func NewColumnReader(payload []byte) *ColumnReader { return &ColumnReader{b: payload} }

// Err reports the first malformed column, or bytes left over after the
// last one read: a payload is only sound if its decoder consumed it all.
func (r *ColumnReader) Err() error {
	if r.err == nil && len(r.b) > 0 {
		return errColumns
	}
	return r.err
}

func (r *ColumnReader) fail() { r.err, r.b = errColumns, nil }

func (r *ColumnReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads one integer.
func (r *ColumnReader) Int() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads an array's length, refusing one that exceeds the bytes left:
// every element takes at least one.
func (r *ColumnReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return 0
	}
	return int(n)
}

// Ints reads an integer array; an element outside int32 is malformed.
func (r *ColumnReader) Ints() []int32 {
	col := make([]int32, r.count())
	for i := range col {
		v := r.Int()
		if v < math.MinInt32 || v > math.MaxInt32 {
			r.fail()
		}
		if r.err != nil {
			return nil
		}
		col[i] = int32(v)
	}
	return col
}

// Offsets reads an array written by ColumnWriter.Offsets.
func (r *ColumnReader) Offsets() []int64 {
	col := make([]int64, r.count())
	var prev int64
	for i := range col {
		prev += int64(r.uvarint())
		if r.err != nil {
			return nil
		}
		col[i] = prev
	}
	return col
}

// suffix reads a length-prefixed byte string, aliasing the payload.
func (r *ColumnReader) suffix() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

// Strings reads a front-coded dictionary. The entries are spelled into one
// buffer and converted to one string, of which each entry is a substring,
// so the allocations do not grow with the number of entries.
func (r *ColumnReader) Strings() []string {
	n := r.count()
	ends := make([]int, n) // entry i is buf[ends[i-1]:ends[i]]
	var buf []byte
	for i := range ends {
		ref := r.uvarint()
		rest := r.suffix()
		from, to := 0, 0 // the entry it shares with; none before the first
		if j := i - 1 - int(ref%dictBack); j >= 0 {
			to = ends[j]
			if j > 0 {
				from = ends[j-1]
			}
		}
		shared := ref / dictBack
		if shared > uint64(min(to-from, maxShared)) {
			r.fail()
		}
		if r.err != nil {
			return nil
		}
		buf = append(buf, buf[from:from+int(shared)]...)
		buf = append(buf, rest...)
		ends[i] = len(buf)
	}
	all := string(buf)
	col := make([]string, n)
	from := 0
	for i, end := range ends {
		col[i], from = all[from:end], end
	}
	return col
}
