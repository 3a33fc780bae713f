// The columnar wire codec: the serving-path replacement for the XML
// DataSet encoding. Sets travel as a stream of length-prefixed,
// CRC32C-framed frames — one schema frame, then row-group page frames,
// then an empty trailer — so a receiver can fold pages into its result
// (or forward them) without ever materializing a second copy of the
// whole set, and a torn or corrupted stream is detected by frame
// accounting rather than by a half-parsed table. Within a page each
// column is a null bitmap plus a native payload ([]int64 / []float64 /
// []string bytes / bool bitmap) written straight from the value
// payloads — no per-cell string formatting or parsing on either end,
// which is what makes it ~an order of magnitude faster than the
// hand-rolled XML codec. See docs/WIRE.md for the byte-level format.
package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"skyquery/internal/value"
)

// Columnar stream constants.
const (
	// columnarMagic opens the schema frame: "SQC1" little-endian.
	columnarMagic = 0x31435153

	// DefaultPageRows is the row-group size used when the caller does not
	// pick one. It matches the storage layer's 1024-row zone blocks.
	DefaultPageRows = 1024

	// maxFramePayload bounds a single frame so a corrupted length prefix
	// cannot drive a multi-gigabyte allocation. SOAP-level message limits
	// still apply on top of this.
	maxFramePayload = 1 << 27 // 128 MiB

	// maxColumnarCols bounds the schema so a corrupt header cannot drive
	// a huge per-row allocation downstream.
	maxColumnarCols = 1 << 16

	// errorMarker fills the row-count slot of an error frame. A producer
	// that fails after the stream has started (HTTP status and headers
	// long gone) ends the stream with one of these instead of a trailer,
	// so the failure arrives as a typed error — never as a silently
	// truncated result.
	errorMarker = 0xFFFFFFFF

	// maxStreamErrorLen truncates the message carried by an error frame.
	maxStreamErrorLen = 16 << 10
)

// StreamError is the decoded form of an in-band error frame: the remote
// producer failed mid-stream and said so.
type StreamError struct {
	Msg string
}

// Error implements the error interface.
func (e *StreamError) Error() string { return e.Msg }

// Per-column block tags inside a page frame. Columns whose cells all
// conform to the declared type use the native tag for that type; a
// column holding off-type cells (legal in DataSet, if unusual) falls
// back to tagBoxed, which round-trips every cell exactly.
const (
	tagInt    = 1
	tagFloat  = 2
	tagString = 3
	tagBool   = 4
	tagBoxed  = 5
	tagNull   = 6
)

// castagnoli is the CRC-32C table; same polynomial the storage WAL uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ColumnarEncoder streams a DataSet as CRC-framed column pages. Usage:
// WriteSchema once, WritePage for each row group, then Close for the
// trailer frame. The encoder reuses one payload buffer across frames.
type ColumnarEncoder struct {
	w    io.Writer
	cols []Column
	buf  []byte // current frame payload under construction
}

// NewColumnarEncoder returns an encoder writing to w.
func NewColumnarEncoder(w io.Writer) *ColumnarEncoder {
	return &ColumnarEncoder{w: w}
}

// WriteSchema emits the schema frame. It must be called exactly once,
// before any page.
func (e *ColumnarEncoder) WriteSchema(cols []Column) error {
	if e.cols != nil {
		return fmt.Errorf("dataset: columnar schema already written")
	}
	if len(cols) > maxColumnarCols {
		return fmt.Errorf("dataset: %d columns exceeds columnar limit %d", len(cols), maxColumnarCols)
	}
	e.cols = cols
	e.buf = e.buf[:0]
	e.buf = binary.LittleEndian.AppendUint32(e.buf, columnarMagic)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(cols)))
	for _, c := range cols {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(c.Name)))
		e.buf = append(e.buf, c.Name...)
		e.buf = append(e.buf, byte(c.Type))
	}
	return e.flushFrame()
}

// WritePage emits one row-group frame. Every row must have exactly one
// cell per schema column. Empty pages are skipped (the trailer frame is
// what terminates the stream).
func (e *ColumnarEncoder) WritePage(rows [][]value.Value) error {
	if e.cols == nil {
		return fmt.Errorf("dataset: columnar page before schema")
	}
	if len(rows) == 0 {
		return nil
	}
	for r, row := range rows {
		if len(row) != len(e.cols) {
			return fmt.Errorf("dataset: columnar page row %d has %d cells, want %d", r, len(row), len(e.cols))
		}
	}
	// Size the frame for fixed-width columns (tag, null flag, 8 bytes a
	// cell) once, instead of growing a fresh stream's buffer by doubling.
	e.buf = slices.Grow(e.buf[:0], 4+len(e.cols)*(2+8*len(rows)))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(rows)))
	for ci, c := range e.cols {
		e.encodeColumn(ci, c.Type, rows)
	}
	return e.flushFrame()
}

// Close emits the trailer frame (an empty page). The underlying writer
// is not closed.
func (e *ColumnarEncoder) Close() error {
	if e.cols == nil {
		return fmt.Errorf("dataset: columnar close before schema")
	}
	e.buf = e.buf[:0]
	e.buf = binary.LittleEndian.AppendUint32(e.buf, 0)
	return e.flushFrame()
}

// WriteError emits an error frame carrying msg and poisons the stream:
// the receiver's next read returns a *StreamError instead of rows. It is
// valid at any point — before the schema, between pages, in place of the
// trailer — because a streaming producer can fail at any of those points.
func (e *ColumnarEncoder) WriteError(msg string) error {
	if len(msg) > maxStreamErrorLen {
		msg = msg[:maxStreamErrorLen]
	}
	e.buf = e.buf[:0]
	e.buf = binary.LittleEndian.AppendUint32(e.buf, errorMarker)
	e.buf = append(e.buf, msg...)
	return e.flushFrame()
}

// streamError interprets a frame payload as an error frame, or returns
// nil when it is not one.
func streamError(p []byte) *StreamError {
	if len(p) < 4 || binary.LittleEndian.Uint32(p) != errorMarker {
		return nil
	}
	return &StreamError{Msg: string(p[4:])}
}

// flushFrame writes u32 length | payload | u32 CRC32C(payload).
func (e *ColumnarEncoder) flushFrame() error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(e.buf)))
	if _, err := e.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := e.w.Write(e.buf); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(e.buf, castagnoli))
	_, err := e.w.Write(hdr[:])
	return err
}

// encodeColumn appends one column block for rows to e.buf. If a cell
// does not conform to the declared type the block restarts as boxed, so
// encoding never fails on legal DataSets.
func (e *ColumnarEncoder) encodeColumn(ci int, t value.Type, rows [][]value.Value) {
	start := len(e.buf)
	ok := false
	switch t {
	case value.IntType:
		ok = e.encodeIntCol(ci, rows)
	case value.FloatType:
		ok = e.encodeFloatCol(ci, rows)
	case value.StringType:
		ok = e.encodeStringCol(ci, rows)
	case value.BoolType:
		ok = e.encodeBoolCol(ci, rows)
	case value.NullType:
		// The XML codec decodes every cell of a NULL-typed column to
		// NULL regardless of its text; tagNull preserves that.
		e.buf = append(e.buf, tagNull)
		ok = true
	}
	if !ok {
		e.buf = e.buf[:start] // drop the partial native block
		e.encodeBoxedCol(ci, rows)
	}
}

// appendNullBitmap writes the hasNulls byte and, when any cell is null,
// a bitmap with bit r set for null rows.
func (e *ColumnarEncoder) appendNullBitmap(ci int, rows [][]value.Value) {
	hasNulls := false
	for _, row := range rows {
		if row[ci].IsNull() {
			hasNulls = true
			break
		}
	}
	if !hasNulls {
		e.buf = append(e.buf, 0)
		return
	}
	e.buf = append(e.buf, 1)
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, (len(rows)+7)/8)...)
	for r, row := range rows {
		if row[ci].IsNull() {
			e.buf[off+r/8] |= 1 << (r % 8)
		}
	}
}

func (e *ColumnarEncoder) encodeIntCol(ci int, rows [][]value.Value) bool {
	for _, row := range rows {
		if v := row[ci]; !v.IsNull() && v.Type() != value.IntType {
			return false
		}
	}
	e.buf = append(e.buf, tagInt)
	e.appendNullBitmap(ci, rows)
	for _, row := range rows {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(row[ci].AsInt()))
	}
	return true
}

func (e *ColumnarEncoder) encodeFloatCol(ci int, rows [][]value.Value) bool {
	// Int cells are accepted and widened, matching the XML codec (an
	// int's text re-parses as a float on the far side).
	for _, row := range rows {
		if v := row[ci]; !v.IsNull() {
			if _, num := v.AsFloat(); !num {
				return false
			}
		}
	}
	e.buf = append(e.buf, tagFloat)
	e.appendNullBitmap(ci, rows)
	for _, row := range rows {
		f, _ := row[ci].AsFloat()
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
	}
	return true
}

func (e *ColumnarEncoder) encodeStringCol(ci int, rows [][]value.Value) bool {
	for _, row := range rows {
		if v := row[ci]; !v.IsNull() && v.Type() != value.StringType {
			return false
		}
	}
	e.buf = append(e.buf, tagString)
	e.appendNullBitmap(ci, rows)
	for _, row := range rows {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(row[ci].AsString())))
	}
	for _, row := range rows {
		e.buf = append(e.buf, row[ci].AsString()...)
	}
	return true
}

func (e *ColumnarEncoder) encodeBoolCol(ci int, rows [][]value.Value) bool {
	for _, row := range rows {
		if v := row[ci]; !v.IsNull() && v.Type() != value.BoolType {
			return false
		}
	}
	e.buf = append(e.buf, tagBool)
	e.appendNullBitmap(ci, rows)
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, (len(rows)+7)/8)...)
	for r, row := range rows {
		if row[ci].AsBool() {
			e.buf[off+r/8] |= 1 << (r % 8)
		}
	}
	return true
}

// encodeBoxedCol writes each cell as a type byte plus its payload —
// the exact-round-trip fallback for mixed or off-schema columns.
func (e *ColumnarEncoder) encodeBoxedCol(ci int, rows [][]value.Value) {
	e.buf = append(e.buf, tagBoxed)
	for _, row := range rows {
		v := row[ci]
		e.buf = append(e.buf, byte(v.Type()))
		switch v.Type() {
		case value.IntType:
			e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v.AsInt()))
		case value.FloatType:
			f, _ := v.AsFloat()
			e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
		case value.StringType:
			s := v.AsString()
			e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(s)))
			e.buf = append(e.buf, s...)
		case value.BoolType:
			b := byte(0)
			if v.AsBool() {
				b = 1
			}
			e.buf = append(e.buf, b)
		}
	}
}

// EncodeColumnar writes the whole set as a columnar stream in pages of
// pageRows rows (<= 0 means DefaultPageRows).
func (d *DataSet) EncodeColumnar(w io.Writer, pageRows int) error {
	if pageRows <= 0 {
		pageRows = DefaultPageRows
	}
	enc := NewColumnarEncoder(w)
	if err := enc.WriteSchema(d.Columns); err != nil {
		return err
	}
	for start := 0; start < len(d.Rows); start += pageRows {
		end := start + pageRows
		if end > len(d.Rows) {
			end = len(d.Rows)
		}
		if err := enc.WritePage(d.Rows[start:end]); err != nil {
			return err
		}
	}
	return enc.Close()
}

// ColumnarDecoder reads a columnar stream incrementally: ReadSchema,
// then ReadPage until it reports done.
type ColumnarDecoder struct {
	r    *bufio.Reader
	cols []Column
	buf  []byte
	done bool
}

// NewColumnarDecoder returns a decoder reading from r.
func NewColumnarDecoder(r io.Reader) *ColumnarDecoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &ColumnarDecoder{r: br}
}

// readFrame reads one frame into d.buf, verifying length and CRC.
func (d *ColumnarDecoder) readFrame() error {
	var hdr [4]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF {
			return fmt.Errorf("dataset: columnar stream truncated: missing frame")
		}
		return fmt.Errorf("dataset: columnar frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFramePayload {
		return fmt.Errorf("dataset: columnar frame of %d bytes exceeds limit %d", n, maxFramePayload)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return fmt.Errorf("dataset: columnar frame truncated: %w", err)
	}
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return fmt.Errorf("dataset: columnar frame CRC truncated: %w", err)
	}
	if want, got := binary.LittleEndian.Uint32(hdr[:]), crc32.Checksum(d.buf, castagnoli); want != got {
		return fmt.Errorf("dataset: columnar frame CRC mismatch (want %08x, got %08x)", want, got)
	}
	return nil
}

// ReadSchema reads the schema frame. It must be called first.
func (d *ColumnarDecoder) ReadSchema() ([]Column, error) {
	if d.cols != nil {
		return d.cols, nil
	}
	if err := d.readFrame(); err != nil {
		return nil, err
	}
	p := d.buf
	if se := streamError(p); se != nil {
		d.done = true
		return nil, se
	}
	if len(p) < 8 || binary.LittleEndian.Uint32(p) != columnarMagic {
		return nil, fmt.Errorf("dataset: not a columnar stream (bad magic)")
	}
	ncols := binary.LittleEndian.Uint32(p[4:])
	if ncols > maxColumnarCols {
		return nil, fmt.Errorf("dataset: columnar schema declares %d columns (limit %d)", ncols, maxColumnarCols)
	}
	p = p[8:]
	cols := make([]Column, 0, ncols)
	for i := uint32(0); i < ncols; i++ {
		if len(p) < 4 {
			return nil, fmt.Errorf("dataset: columnar schema truncated")
		}
		nameLen := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if uint32(len(p)) < nameLen+1 {
			return nil, fmt.Errorf("dataset: columnar schema truncated")
		}
		name := string(p[:nameLen])
		t := value.Type(p[nameLen])
		if t > value.BoolType {
			return nil, fmt.Errorf("dataset: columnar schema: bad column type %d", t)
		}
		p = p[nameLen+1:]
		cols = append(cols, Column{Name: name, Type: t})
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("dataset: columnar schema has %d trailing bytes", len(p))
	}
	d.cols = cols
	return cols, nil
}

// ReadPage reads the next page and appends its rows to dst (which must
// share the stream's schema). It returns the number of rows appended;
// 0 with a nil error means the trailer was reached and the stream is
// complete.
func (d *ColumnarDecoder) ReadPage(dst *DataSet) (int, error) {
	if d.cols == nil {
		return 0, fmt.Errorf("dataset: columnar page read before schema")
	}
	if d.done {
		return 0, nil
	}
	if err := d.readFrame(); err != nil {
		return 0, err
	}
	p := d.buf
	if se := streamError(p); se != nil {
		d.done = true
		return 0, se
	}
	if len(p) < 4 {
		return 0, fmt.Errorf("dataset: columnar page truncated")
	}
	nrows := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if nrows == 0 {
		if len(p) != 0 {
			return 0, fmt.Errorf("dataset: columnar trailer has %d trailing bytes", len(p))
		}
		d.done = true
		return 0, nil
	}
	if nrows > maxFramePayload {
		return 0, fmt.Errorf("dataset: columnar page declares %d rows", nrows)
	}
	// One backing allocation for all cells of the page.
	flat := make([]value.Value, nrows*len(d.cols))
	rows := make([][]value.Value, nrows)
	for r := range rows {
		rows[r] = flat[r*len(d.cols) : (r+1)*len(d.cols) : (r+1)*len(d.cols)]
	}
	var err error
	for ci := range d.cols {
		p, err = decodeColumn(p, ci, rows)
		if err != nil {
			return 0, fmt.Errorf("dataset: columnar page column %d (%s): %w", ci, d.cols[ci].Name, err)
		}
	}
	if len(p) != 0 {
		return 0, fmt.Errorf("dataset: columnar page has %d trailing bytes", len(p))
	}
	dst.Rows = append(dst.Rows, rows...)
	return nrows, nil
}

// readNullBitmap consumes the hasNulls byte (and bitmap if set) and
// returns a function reporting whether row r is null.
func readNullBitmap(p []byte, nrows int) ([]byte, func(int) bool, error) {
	if len(p) < 1 {
		return nil, nil, fmt.Errorf("null header truncated")
	}
	hasNulls := p[0]
	p = p[1:]
	if hasNulls == 0 {
		return p, func(int) bool { return false }, nil
	}
	nb := (nrows + 7) / 8
	if len(p) < nb {
		return nil, nil, fmt.Errorf("null bitmap truncated")
	}
	bm := p[:nb]
	return p[nb:], func(r int) bool { return bm[r/8]&(1<<(r%8)) != 0 }, nil
}

// decodeColumn fills column ci of rows from p and returns the remainder.
func decodeColumn(p []byte, ci int, rows [][]value.Value) ([]byte, error) {
	if len(p) < 1 {
		return nil, fmt.Errorf("column tag truncated")
	}
	tag := p[0]
	p = p[1:]
	nrows := len(rows)
	switch tag {
	case tagNull:
		return p, nil // cells already zero == NULL
	case tagBoxed:
		for r := 0; r < nrows; r++ {
			if len(p) < 1 {
				return nil, fmt.Errorf("boxed cell truncated")
			}
			t := value.Type(p[0])
			p = p[1:]
			switch t {
			case value.NullType:
				// zero Value is NULL already
			case value.IntType:
				if len(p) < 8 {
					return nil, fmt.Errorf("boxed int truncated")
				}
				rows[r][ci] = value.Int(int64(binary.LittleEndian.Uint64(p)))
				p = p[8:]
			case value.FloatType:
				if len(p) < 8 {
					return nil, fmt.Errorf("boxed float truncated")
				}
				rows[r][ci] = value.Float(math.Float64frombits(binary.LittleEndian.Uint64(p)))
				p = p[8:]
			case value.StringType:
				if len(p) < 4 {
					return nil, fmt.Errorf("boxed string truncated")
				}
				n := binary.LittleEndian.Uint32(p)
				p = p[4:]
				if uint32(len(p)) < n {
					return nil, fmt.Errorf("boxed string truncated")
				}
				rows[r][ci] = value.String(string(p[:n]))
				p = p[n:]
			case value.BoolType:
				if len(p) < 1 {
					return nil, fmt.Errorf("boxed bool truncated")
				}
				rows[r][ci] = value.Bool(p[0] != 0)
				p = p[1:]
			default:
				return nil, fmt.Errorf("boxed cell has bad type %d", t)
			}
		}
		return p, nil
	}
	var isNull func(int) bool
	var err error
	p, isNull, err = readNullBitmap(p, nrows)
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagInt:
		if len(p) < nrows*8 {
			return nil, fmt.Errorf("int payload truncated")
		}
		for r := 0; r < nrows; r++ {
			if !isNull(r) {
				rows[r][ci] = value.Int(int64(binary.LittleEndian.Uint64(p[r*8:])))
			}
		}
		return p[nrows*8:], nil
	case tagFloat:
		if len(p) < nrows*8 {
			return nil, fmt.Errorf("float payload truncated")
		}
		for r := 0; r < nrows; r++ {
			if !isNull(r) {
				rows[r][ci] = value.Float(math.Float64frombits(binary.LittleEndian.Uint64(p[r*8:])))
			}
		}
		return p[nrows*8:], nil
	case tagString:
		if len(p) < nrows*4 {
			return nil, fmt.Errorf("string lengths truncated")
		}
		lens := p[:nrows*4]
		p = p[nrows*4:]
		total := uint64(0)
		for r := 0; r < nrows; r++ {
			total += uint64(binary.LittleEndian.Uint32(lens[r*4:]))
		}
		if uint64(len(p)) < total {
			return nil, fmt.Errorf("string payload truncated")
		}
		// One string allocation for the page's column; cells are slices
		// of it.
		blob := string(p[:total])
		p = p[total:]
		off := 0
		for r := 0; r < nrows; r++ {
			n := int(binary.LittleEndian.Uint32(lens[r*4:]))
			if !isNull(r) {
				rows[r][ci] = value.String(blob[off : off+n])
			}
			off += n
		}
		return p, nil
	case tagBool:
		nb := (nrows + 7) / 8
		if len(p) < nb {
			return nil, fmt.Errorf("bool payload truncated")
		}
		for r := 0; r < nrows; r++ {
			if !isNull(r) {
				rows[r][ci] = value.Bool(p[r/8]&(1<<(r%8)) != 0)
			}
		}
		return p[nb:], nil
	default:
		return nil, fmt.Errorf("bad column tag %d", tag)
	}
}

// DecodeColumnar reads a full columnar stream written by EncodeColumnar.
func DecodeColumnar(r io.Reader) (*DataSet, error) {
	dec := NewColumnarDecoder(r)
	cols, err := dec.ReadSchema()
	if err != nil {
		return nil, err
	}
	d := &DataSet{Columns: cols}
	for {
		n, err := dec.ReadPage(d)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return d, nil
		}
	}
}

// ColumnarSize returns the exact size in bytes of the columnar encoding
// at the default page size.
func (d *DataSet) ColumnarSize() int {
	var n countWriter
	if err := d.EncodeColumnar(&n, 0); err != nil {
		return 0
	}
	return int(n)
}
