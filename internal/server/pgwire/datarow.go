package pgwire

import (
	"encoding/binary"
	"strconv"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/value"
)

// This file is the result side of the frame builder: DataRow frames
// appended field by field from a cursor's column batch. A typed slot
// is formatted straight into the Writer's output buffer behind a
// length word that is patched afterwards — no string, no []byte per
// field, no [][]byte per row. Field bytes equal EncodeText of the
// boxed cell.

// WriteDataRows emits rows [lo, hi) of b as one DataRow frame each.
func (w *Writer) WriteDataRows(b *exec.Batch, lo, hi int) error {
	vecs, rows := b.Vecs, b.Rows
	for r := lo; r < hi; r++ {
		w.begin(MsgDataRow)
		if vecs != nil {
			w.addInt16(int16(len(vecs)))
			for _, v := range vecs {
				w.addSlot(v, r)
			}
		} else {
			w.addInt16(int16(len(rows[r])))
			for _, v := range rows[r] {
				w.addValue(v)
			}
		}
		if err := w.end(); err != nil {
			return err
		}
	}
	return nil
}

// beginField opens a non-NULL field; endField patches its length.
func (w *Writer) beginField() int {
	w.buf = append(w.buf, 0, 0, 0, 0)
	return len(w.buf)
}

func (w *Writer) endField(at int) {
	binary.BigEndian.PutUint32(w.buf[at-4:], uint32(len(w.buf)-at))
}

// addSlot appends element i of a column as one field.
func (w *Writer) addSlot(vec bat.Vector, i int) {
	if vec.IsNull(i) {
		w.addInt32(-1)
		return
	}
	at := w.beginField()
	switch v := vec.(type) {
	case *bat.IntVector:
		if v.Type() == value.Timestamp {
			w.buf = appendTimestamp(w.buf, v.Ints()[i])
		} else {
			w.buf = strconv.AppendInt(w.buf, v.Ints()[i], 10)
		}
	case *bat.FloatVector:
		w.buf = appendFloat8(w.buf, v.Floats()[i])
	case *bat.StringVector:
		w.buf = append(w.buf, v.Strings()[i]...)
	case *bat.BoolVector:
		w.buf = appendBool(w.buf, v.Bools()[i])
	default:
		w.buf = AppendText(w.buf, vec.Get(i))
	}
	w.endField(at)
}

// addValue appends a boxed cell as one field.
func (w *Writer) addValue(v value.Value) {
	if v.Null {
		w.addInt32(-1)
		return
	}
	at := w.beginField()
	w.buf = AppendText(w.buf, v)
	w.endField(at)
}
