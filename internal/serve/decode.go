package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"nde/internal/linalg"
	"nde/internal/nderr"
)

// registration is a decoded POST /v1/datasets body in the form
// registerDataset builds from. Two decoders produce it: decodeRegisterFast
// for the canonical body and decodeRegisterJSON (encoding/json over the
// RegisterRequest wire type) for everything else.
type registration struct {
	name               string
	train, valid, test *splitSpec // nil when the body has no such split
	truth              []int
}

// splitSpec is one decoded split: an inline CSV document or an inline
// matrix, as in MatrixSpec.
type splitSpec struct {
	csv, label string
	x          *linalg.Matrix // inline matrix; nil when the body has no x
	y          []int
	// ragged is the error for an inline matrix whose rows differ in width.
	// Only the encoding/json path sets it; datasetFromMatrix reports it
	// after the shape checks that come first.
	ragged error
}

// decodeRegister decodes a register body. The canonical-body fast path
// runs first; when it declines, encoding/json decodes the same bytes, so
// every body the fast path does not take keeps its status and message.
func decodeRegister(body []byte) (*registration, error) {
	if reg, ok := decodeRegisterFast(body); ok {
		return reg, nil
	}
	return decodeRegisterJSON(body)
}

// errTrailingData rejects request bodies with bytes after the JSON
// value. A package-level sentinel (not an ad-hoc fmt.Errorf, per the
// nde-lint errwrap contract) so decode stays classifiable.
var errTrailingData = errors.New("trailing data after JSON body")

// decodeJSON decodes one JSON value from rd into v. Unknown fields and
// trailing garbage are rejected so typos fail loudly instead of being
// silently ignored. A read error past the value (an *http.MaxBytesError
// when trailing bytes run over the body cap) is returned as is, so the
// caller still classifies an oversized body as too large.
func decodeJSON(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var trailing any
	switch err := dec.Decode(&trailing); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	}
	return errTrailingData
}

// decodeRegisterJSON decodes a register body through the RegisterRequest
// wire type and copies each inline matrix into a linalg.Matrix.
func decodeRegisterJSON(body []byte) (*registration, error) {
	var req RegisterRequest
	if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
		return nil, err
	}
	return &registration{
		name:  req.Name,
		train: splitFromWire("train", req.Train),
		valid: splitFromWire("valid", req.Valid),
		test:  splitFromWire("test", req.Test),
		truth: req.Truth,
	}, nil
}

// splitFromWire converts a decoded MatrixSpec. A matrix whose rows differ
// in width keeps its row count and row-0 width and records the first
// offending row in ragged.
func splitFromWire(split string, spec *MatrixSpec) *splitSpec {
	if spec == nil {
		return nil
	}
	s := &splitSpec{csv: spec.CSV, label: spec.Label, y: spec.Y}
	if spec.X == nil {
		return s
	}
	cols := 0
	if len(spec.X) > 0 {
		cols = len(spec.X[0])
	}
	s.x = &linalg.Matrix{Rows: len(spec.X), Cols: cols}
	for r, row := range spec.X {
		if len(row) != cols {
			s.ragged = fmt.Errorf("%w: %s split row %d has %d features, row 0 has %d",
				nderr.ErrShapeMismatch, split, r, len(row), cols)
			return s
		}
	}
	s.x.Data = make([]float64, len(spec.X)*cols)
	for r, row := range spec.X {
		copy(s.x.Data[r*cols:], row)
	}
	return s
}

// decodeRegisterFast decodes the canonical register body in one pass over
// its bytes, writing each inline matrix straight into an exactly sized
// row-major backing array. The canonical body is an object with the keys
// name/train/valid/test/truth, each split an object with the keys
// csv/label/x/y; keys are exact lowercase with no escapes and no
// duplicates, there is no null anywhere, every row of x has the same
// non-zero width, and only whitespace follows the value.
//
// It never reports an error: on anything else it declines (ok false) and
// the caller decodes with encoding/json. Whatever it accepts, encoding/json
// accepts too and decodes to the same values: numbers are checked against
// the JSON grammar and then parsed with the strconv calls encoding/json
// makes, and strings are unquoted by encoding/json itself.
func decodeRegisterFast(body []byte) (*registration, bool) {
	d := fastDecoder{b: body}
	reg := &registration{}
	var seen uint8
	ok := d.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return once(&seen, 1) && d.str(&reg.name)
		case "train":
			return once(&seen, 2) && d.split(&reg.train)
		case "valid":
			return once(&seen, 4) && d.split(&reg.valid)
		case "test":
			return once(&seen, 8) && d.split(&reg.test)
		case "truth":
			return once(&seen, 16) && d.ints(&reg.truth)
		}
		return false
	})
	d.ws()
	if !ok || d.i != len(d.b) {
		return nil, false
	}
	return reg, true
}

// once marks bit in seen and reports whether it was clear: a key seen
// twice declines.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// blockLen is the length of one x scratch block (128 KiB of float64).
// Values are written into fixed blocks and copied once into an exact slice,
// so a stored matrix carries no growth slack.
const blockLen = 1 << 14

// fastDecoder is the cursor of decodeRegisterFast. Every method returns
// false to decline.
type fastDecoder struct {
	b []byte
	i int

	blocks [][]float64 // x scratch, reused across splits
	n      int         // values written into blocks for the current x
	ys     []int       // y and truth scratch, reused
}

// ws skips JSON whitespace.
func (d *fastDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (d *fastDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object parses a JSON object whose keys are plain lowercase ASCII,
// calling field with each key and the cursor at its value.
func (d *fastDecoder) object(field func(key []byte) bool) bool {
	d.ws()
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	for {
		if !d.eat('"') {
			return false
		}
		start := d.i
		for d.i < len(d.b) && 'a' <= d.b[d.i] && d.b[d.i] <= 'z' {
			d.i++
		}
		key := d.b[start:d.i]
		if !d.eat('"') {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		if !field(key) {
			return false
		}
		d.ws()
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
		d.ws()
	}
}

// split parses one split object into *dst.
func (d *fastDecoder) split(dst **splitSpec) bool {
	s := &splitSpec{}
	var seen uint8
	*dst = s
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "csv":
			return once(&seen, 1) && d.str(&s.csv)
		case "label":
			return once(&seen, 2) && d.str(&s.label)
		case "x":
			return once(&seen, 4) && d.matrix(&s.x)
		case "y":
			return once(&seen, 8) && d.ints(&s.y)
		}
		return false
	})
}

// str parses a string token and unquotes it with encoding/json.
func (d *fastDecoder) str(dst *string) bool {
	start := d.i
	if !d.eat('"') {
		return false
	}
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case '"':
			d.i++
			return json.Unmarshal(d.b[start:d.i], dst) == nil
		case '\\':
			d.i += 2
		default:
			d.i++
		}
	}
	return false
}

// number scans one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is narrower than
// what strconv parses (no "+1", ".5", "Inf", "0x1p3" or "1_0").
func (d *fastDecoder) number() ([]byte, bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	tok := b[d.i:i]
	d.i = i
	return tok, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// array parses a JSON array, calling elem with the cursor at each
// element, and returns the element count.
func (d *fastDecoder) array(elem func() bool) (int, bool) {
	if !d.eat('[') {
		return 0, false
	}
	d.ws()
	if d.eat(']') {
		return 0, true
	}
	for n := 1; ; n++ {
		if !elem() {
			return 0, false
		}
		d.ws()
		if d.eat(']') {
			return n, true
		}
		if !d.eat(',') {
			return 0, false
		}
		d.ws()
	}
}

// ints parses an array of integers into *dst as encoding/json decodes it
// into an []int: strconv.ParseInt, range-checked at the width of int. An
// empty array yields an empty, non-nil slice.
func (d *fastDecoder) ints(dst *[]int) bool {
	d.ys = d.ys[:0]
	_, ok := d.array(func() bool {
		tok, ok := d.number()
		if !ok {
			return false
		}
		v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		if err != nil {
			return false
		}
		d.ys = append(d.ys, int(v))
		return true
	})
	if !ok {
		return false
	}
	*dst = append(make([]int, 0, len(d.ys)), d.ys...)
	return true
}

// matrix parses x into *dst: a non-empty array of equal-width, non-empty
// arrays of numbers, each parsed as encoding/json decodes a float64
// (strconv.ParseFloat at 64 bits), written into one exactly sized
// row-major backing array.
func (d *fastDecoder) matrix(dst **linalg.Matrix) bool {
	d.n = 0
	cols := -1
	rows, ok := d.array(func() bool {
		width, ok := d.array(func() bool {
			tok, ok := d.number()
			if !ok {
				return false
			}
			v, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return false
			}
			d.put(v)
			return true
		})
		if cols < 0 {
			cols = width
		}
		return ok && width == cols && width > 0
	})
	if !ok || rows == 0 {
		return false
	}
	data := make([]float64, d.n)
	for b := 0; b*blockLen < d.n; b++ {
		copy(data[b*blockLen:], d.blocks[b])
	}
	*dst = &linalg.Matrix{Rows: rows, Cols: cols, Data: data}
	return true
}

// put appends v to the x scratch blocks.
func (d *fastDecoder) put(v float64) {
	b := d.n / blockLen
	if b == len(d.blocks) {
		d.blocks = append(d.blocks, make([]float64, blockLen))
	}
	d.blocks[b][d.n%blockLen] = v
	d.n++
}
