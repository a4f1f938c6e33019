package pgwire

import (
	"encoding/binary"

	"repro/internal/exec"
)

// This file is the result side of the frame builder: DataRow frames
// appended field by field from a cursor's column batch. A cell is
// formatted straight into the Writer's output buffer behind a length
// word that is patched afterwards — no string, no []byte per field, no
// [][]byte per row. Field bytes equal EncodeText of the boxed cell.

// WriteDataRows emits rows [lo, hi) of b as one DataRow frame each.
func (w *Writer) WriteDataRows(b *exec.Batch, lo, hi int) error {
	for r := lo; r < hi; r++ {
		w.begin(MsgDataRow)
		w.addInt16(int16(len(b.Vecs)))
		for col := range b.Vecs {
			c := b.Cell(col, r)
			if c.Null {
				w.addInt32(-1)
				continue
			}
			w.buf = append(w.buf, 0, 0, 0, 0) // the field's length, patched below
			at := len(w.buf)
			var typed bool
			if w.buf, typed = appendCell(w.buf, c); !typed {
				w.buf = append(w.buf, b.Value(col, r).String()...)
			}
			binary.BigEndian.PutUint32(w.buf[at-4:], uint32(len(w.buf)-at))
		}
		if err := w.end(); err != nil {
			return err
		}
	}
	return nil
}
