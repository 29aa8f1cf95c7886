package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"unicode/utf16"
	"unicode/utf8"
)

// maxLineBytes bounds one NDJSON record; a 4 MB line comfortably holds a
// chunk of tens of thousands of logged accesses.
const maxLineBytes = 4 << 20

// Read parses an NDJSON history from r, validating structure as it goes.
// Blank lines are skipped. A header, when present, must be the first
// record; its version must be in [1, Version] and its format, when
// non-empty, must be "bulksc-history". Histories with no header get
// defaults (version 1, procs inferred), which is what lets traces authored
// by other systems check without ceremony.
//
// Chunk and access records go through a single-pass decoder (see decoder)
// that accepts exactly what encoding/json would accept into ChunkRec and
// AccessRec; the header, one line per file, is decoded with encoding/json.
func Read(r io.Reader) (*History, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	h := &History{}
	var d decoder
	var chunks blocks[ChunkRec]
	var accesses blocks[AccessRec]
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if err := d.record(raw); err != nil {
			return nil, fmt.Errorf("history: line %d: %w", line, err)
		}
		switch string(d.kind) {
		case KindHeader:
			if sawHeader {
				return nil, fmt.Errorf("history: line %d: duplicate header", line)
			}
			if chunks.n > 0 || accesses.n > 0 {
				return nil, fmt.Errorf("history: line %d: header after operation records", line)
			}
			if err := json.Unmarshal(raw, &h.Header); err != nil {
				return nil, fmt.Errorf("history: line %d: header: %w", line, err)
			}
			if h.Header.Version < 1 || h.Header.Version > Version {
				return nil, fmt.Errorf("history: line %d: unsupported version %d (this reader handles 1..%d)",
					line, h.Header.Version, Version)
			}
			if h.Header.Format != "" && h.Header.Format != Format {
				return nil, fmt.Errorf("history: line %d: format %q, want %q", line, h.Header.Format, Format)
			}
			sawHeader = true
		case KindChunk:
			if d.chunkErr != nil {
				return nil, fmt.Errorf("history: line %d: chunk: %w", line, d.chunkErr)
			}
			chunks.add(d.chunk())
		case KindAccess:
			if d.accessErr != nil {
				return nil, fmt.Errorf("history: line %d: access: %w", line, d.accessErr)
			}
			accesses.add(d.access())
		case "":
			return nil, fmt.Errorf("history: line %d: record has no \"kind\" field", line)
		default:
			return nil, fmt.Errorf("history: line %d: unknown record kind %q", line, d.kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	if !sawHeader {
		h.Header = Header{Kind: KindHeader, Version: 1}
	}
	h.Chunks = chunks.slice()
	h.Accesses = accesses.slice()
	if len(h.Chunks) == 0 && len(h.Accesses) == 0 {
		return nil, fmt.Errorf("history: no operation records")
	}
	if err := h.validate(); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	return h, nil
}

// blocks collects records in fixed-size blocks and copies them into one
// exactly-sized slice at the end. Growing the slice by append instead
// allocates a chain of ever-larger copies, about five times the final
// size; a reader that makes little other garbage rarely triggers a
// collection in between, so the heap grows around the chain (audit
// benchmark workload on a 2-vCPU Xeon VM: peak RSS 91-94 MB that way,
// 77 MB with blocks).
type blocks[T any] struct {
	full [][]T
	cur  []T
	n    int
}

const blockLen = 1024

func (b *blocks[T]) add(v T) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]T, 0, blockLen)
	}
	b.cur = append(b.cur, v)
	b.n++
}

// slice returns the records in order, nil when there are none.
func (b *blocks[T]) slice() []T {
	if b.n == 0 {
		return nil
	}
	out := make([]T, 0, b.n)
	for _, blk := range b.full {
		out = append(out, blk...)
	}
	return append(out, b.cur...)
}

// maxDepth is encoding/json's nesting limit: a line nested deeper than
// this many objects and arrays is not valid JSON to it, nor to Read.
const maxDepth = 10000

// field names a record member. Keys match a field the way encoding/json
// matches struct fields: exactly, or else case-insensitively under Unicode
// simple folding (so "Kind", with a Kelvin sign, is "kind").
type field uint8

const (
	fUnknown field = iota
	fKind
	fProc
	fSeq
	fOrder
	fOps
	fPO
	fStore
	fAddr
	fVal
	fFwd
)

var fieldNames = [...][]byte{
	fKind: []byte("kind"), fProc: []byte("proc"), fSeq: []byte("seq"),
	fOrder: []byte("order"), fOps: []byte("ops"), fPO: []byte("po"),
	fStore: []byte("store"), fAddr: []byte("addr"), fVal: []byte("val"),
	fFwd: []byte("fwd"),
}

func fieldOf(key []byte) field {
	switch string(key) {
	case "kind":
		return fKind
	case "proc":
		return fProc
	case "seq":
		return fSeq
	case "order":
		return fOrder
	case "ops":
		return fOps
	case "po":
		return fPO
	case "store":
		return fStore
	case "addr":
		return fAddr
	case "val":
		return fVal
	case "fwd":
		return fFwd
	}
	for f := fKind; int(f) < len(fieldNames); f++ {
		if bytes.EqualFold(key, fieldNames[f]) {
			return f
		}
	}
	return fUnknown
}

// decoder decodes one chunk or access record line in a single pass. It
// reproduces what encoding/json.Unmarshal does with the line into a
// ChunkRec and into an AccessRec, at once, because the kind that decides
// between them may come last (or twice — the last one wins):
//
//   - the line must be one JSON value, with nothing after it, nested at
//     most maxDepth deep, or it is a syntax error whatever its kind;
//   - keys match fields as fieldOf says; unknown keys, and keys of the
//     other record shape, are skipped whatever value they hold;
//   - a value of the wrong JSON type for its field, a number that is not
//     an integer or overflows the field, or a negative uint64, is a type
//     error — recorded per shape, since "po":"x" fails an access record
//     and is ignored by a chunk record;
//   - null leaves a scalar field as it was and sets ops to nil;
//   - a repeated "ops" decodes into the elements the previous one left,
//     exactly as encoding/json reuses a slice's backing array, and "[]"
//     gives an empty non-nil slice.
//
// A decoder is reused across lines; its ops scratch keeps its capacity.
type decoder struct {
	b []byte
	i int

	kind    []byte // the last string "kind" value; nil if none
	kindBuf []byte // unescaped kind, when it needed unescaping
	keyBuf  []byte // unescaped key, when it needed unescaping

	// chunkErr and accessErr are the first type error each record shape
	// would report.
	chunkErr, accessErr error

	proc       int
	seq, order uint64
	po         uint64
	addr, val  uint64
	store, fwd bool

	// ops[:nops] is the decoded ops array, or nil when opsNil. Elements
	// ops[nops:opsHigh] still hold values an earlier, longer "ops" of the
	// same line decoded; encoding/json exposes them again if a later
	// "ops" grows back over them.
	ops     []Op
	nops    int
	opsHigh int
	opsNil  bool
}

var errEnd = errors.New("unexpected end of JSON input")

func (d *decoder) syntax(what string) error {
	if d.i >= len(d.b) {
		return errEnd
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", d.b[d.i], what, d.i)
}

func typeError(name, value, goType string) error {
	return fmt.Errorf("cannot decode %s into field %q of type %s", value, name, goType)
}

// record decodes one trimmed, non-empty line. A non-nil error means the
// line is invalid whatever its kind; otherwise d.kind says which record
// it is and chunkErr/accessErr whether that shape decoded cleanly.
func (d *decoder) record(b []byte) error {
	*d = decoder{b: b, kindBuf: d.kindBuf[:0], keyBuf: d.keyBuf[:0], ops: d.ops, opsNil: true}
	if b[0] != '{' {
		// Not an object: encoding/json leaves null as an empty record
		// and rejects every other value for a struct.
		if err := d.skip(0); err != nil {
			return err
		}
		if err := d.end(); err != nil {
			return err
		}
		if string(b) == "null" {
			return nil
		}
		return fmt.Errorf("record is %s, not a JSON object", describe(b[0]))
	}
	d.i++
	if err := d.object(1, objRecord, nil); err != nil {
		return err
	}
	return d.end()
}

// end requires nothing but whitespace after the top-level value.
func (d *decoder) end() error {
	d.ws()
	if d.i != len(d.b) {
		return d.syntax("after top-level value")
	}
	return nil
}

// Objects an object walk decodes: the record itself, one ops element,
// or a value being skipped.
type objKind uint8

const (
	objRecord objKind = iota
	objOp
	objSkip
)

// object decodes the members of an object at depth depth whose '{' is
// consumed; op is the element an objOp walk decodes into.
func (d *decoder) object(depth int, k objKind, op *Op) error {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == '}' {
		d.i++
		return nil
	}
	for {
		d.ws()
		if d.i >= len(d.b) || d.b[d.i] != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		s, plain, err := d.str()
		if err != nil {
			return err
		}
		f := fUnknown
		if k != objSkip {
			if !plain {
				d.keyBuf = unquote(d.keyBuf[:0], s)
				s = d.keyBuf
			}
			f = fieldOf(s)
		}
		d.ws()
		if d.i >= len(d.b) || d.b[d.i] != ':' {
			return d.syntax("after object key")
		}
		d.i++
		d.ws()
		switch k {
		case objRecord:
			err = d.recordField(depth, f)
		case objOp:
			err = d.opField(depth, f, op)
		default:
			err = d.skip(depth)
		}
		if err != nil {
			return err
		}
		d.ws()
		if d.i >= len(d.b) {
			return errEnd
		}
		switch d.b[d.i] {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

func (d *decoder) recordField(depth int, f field) error {
	switch f {
	case fKind:
		return d.kindField(depth)
	case fProc:
		return d.procField(depth)
	case fSeq:
		return d.uintField(depth, "seq", &d.seq, &d.chunkErr)
	case fOrder:
		return d.uintField(depth, "order", &d.order, &d.chunkErr)
	case fOps:
		return d.opsField(depth)
	case fPO:
		return d.uintField(depth, "po", &d.po, &d.accessErr)
	case fStore:
		return d.boolField(depth, "store", &d.store, &d.accessErr)
	case fAddr:
		return d.uintField(depth, "addr", &d.addr, &d.accessErr)
	case fVal:
		return d.uintField(depth, "val", &d.val, &d.accessErr)
	case fFwd:
		return d.boolField(depth, "fwd", &d.fwd, &d.accessErr)
	}
	return d.skip(depth)
}

func (d *decoder) opField(depth int, f field, op *Op) error {
	switch f {
	case fStore:
		return d.boolField(depth, "store", &op.Store, &d.chunkErr)
	case fAddr:
		return d.uintField(depth, "addr", &op.Addr, &d.chunkErr)
	case fVal:
		return d.uintField(depth, "val", &op.Val, &d.chunkErr)
	}
	return d.skip(depth)
}

// fail keeps the first type error a record shape meets.
func fail(dst *error, err error) {
	if *dst == nil {
		*dst = err
	}
}

// kindField decodes "kind". A kind that is not a string (or null) fails
// every shape, so it is the line's error.
func (d *decoder) kindField(depth int) error {
	if d.i < len(d.b) && d.b[d.i] == '"' {
		s, plain, err := d.str()
		if err != nil {
			return err
		}
		if !plain {
			d.kindBuf = unquote(d.kindBuf[:0], s)
			s = d.kindBuf
		}
		d.kind = s
		return nil
	}
	start := d.i
	if err := d.skip(depth); err != nil {
		return err
	}
	if tok := d.b[start:d.i]; tok[0] != 'n' {
		return typeError("kind", describe(tok[0]), "string")
	}
	return nil
}

func (d *decoder) procField(depth int) error {
	start := d.i
	if err := d.skip(depth); err != nil {
		return err
	}
	tok := d.b[start:d.i]
	if tok[0] == 'n' {
		return nil
	}
	v, ok := parseInt(tok)
	if !ok {
		err := typeError("proc", describeValue(tok), "int")
		fail(&d.chunkErr, err)
		fail(&d.accessErr, err)
		return nil
	}
	d.proc = v
	return nil
}

func (d *decoder) uintField(depth int, name string, dst *uint64, bad *error) error {
	// Fast path: a plain integer that fits, scanned and converted at once.
	b, i := d.b, d.i
	var v uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if v > (math.MaxUint64-uint64(b[i]-'0'))/10 {
			i = d.i // overflow: the slow path reports it
			break
		}
		v = v*10 + uint64(b[i]-'0')
	}
	if n := i - d.i; n > 0 && (n == 1 || b[d.i] != '0') &&
		(i == len(b) || b[i] != '.' && b[i] != 'e' && b[i] != 'E') {
		d.i = i
		*dst = v
		return nil
	}
	start := d.i
	if err := d.skip(depth); err != nil {
		return err
	}
	tok := d.b[start:d.i]
	if tok[0] == 'n' {
		return nil
	}
	if v, ok := parseUint(tok); ok {
		*dst = v
	} else {
		fail(bad, typeError(name, describeValue(tok), "uint64"))
	}
	return nil
}

func (d *decoder) boolField(depth int, name string, dst *bool, bad *error) error {
	start := d.i
	if err := d.skip(depth); err != nil {
		return err
	}
	switch tok := d.b[start:d.i]; tok[0] {
	case 'n':
	case 't':
		*dst = true
	case 'f':
		*dst = false
	default:
		fail(bad, typeError(name, describeValue(tok), "bool"))
	}
	return nil
}

// opsField decodes "ops" into the ops scratch with encoding/json's slice
// semantics (see decoder).
func (d *decoder) opsField(depth int) error {
	if d.i >= len(d.b) || d.b[d.i] != '[' {
		start := d.i
		if err := d.skip(depth); err != nil {
			return err
		}
		if tok := d.b[start:d.i]; tok[0] == 'n' {
			d.opsNil, d.nops, d.opsHigh = true, 0, 0
		} else {
			fail(&d.chunkErr, typeError("ops", describeValue(tok), "[]history.Op"))
		}
		return nil
	}
	if depth+1 > maxDepth {
		return errors.New("exceeded max depth")
	}
	d.i++
	d.ws()
	n := 0
	if d.i < len(d.b) && d.b[d.i] == ']' {
		d.i++
	} else {
		for {
			d.ws()
			if n >= d.nops {
				if n >= d.opsHigh {
					if n < len(d.ops) {
						d.ops[n] = Op{}
					} else {
						d.ops = append(d.ops, Op{})
					}
					d.opsHigh = n + 1
				}
				d.nops = n + 1
			}
			if err := d.opElem(depth+1, n); err != nil {
				return err
			}
			n++
			d.ws()
			if d.i >= len(d.b) {
				return errEnd
			}
			c := d.b[d.i]
			d.i++
			if c == ']' {
				break
			}
			if c != ',' {
				d.i--
				return d.syntax("after array element")
			}
		}
	}
	d.opsNil = false
	if n < d.nops {
		d.nops = n
	}
	if n == 0 {
		d.nops, d.opsHigh = 0, 0
	}
	return nil
}

// opElem decodes ops element n: an object merges into whatever the
// element holds, null leaves it alone.
func (d *decoder) opElem(depth, n int) error {
	if d.i < len(d.b) && d.b[d.i] == '{' {
		if depth+1 > maxDepth {
			return errors.New("exceeded max depth")
		}
		d.i++
		return d.object(depth+1, objOp, &d.ops[n])
	}
	start := d.i
	if err := d.skip(depth); err != nil {
		return err
	}
	if tok := d.b[start:d.i]; tok[0] != 'n' {
		fail(&d.chunkErr, typeError("ops", describeValue(tok), "history.Op"))
	}
	return nil
}

// chunk returns the decoded chunk record. Its Ops is a fresh slice (nil
// when the line had no ops or "ops":null).
func (d *decoder) chunk() ChunkRec {
	c := ChunkRec{Kind: KindChunk, Proc: d.proc, Seq: d.seq, Order: d.order}
	if !d.opsNil {
		c.Ops = make([]Op, d.nops)
		copy(c.Ops, d.ops)
	}
	return c
}

func (d *decoder) access() AccessRec {
	return AccessRec{
		Kind: KindAccess, Proc: d.proc, PO: d.po, Store: d.store,
		Addr: d.addr, Val: d.val, Fwd: d.fwd,
	}
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// skip validates and steps over one JSON value at container depth depth.
func (d *decoder) skip(depth int) error {
	if d.i >= len(d.b) {
		return errEnd
	}
	switch c := d.b[d.i]; {
	case c == '{', c == '[':
		if depth+1 > maxDepth {
			return errors.New("exceeded max depth")
		}
		d.i++
		if c == '{' {
			return d.object(depth+1, objSkip, nil)
		}
		return d.skipArray(depth + 1)
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return d.syntax("looking for beginning of value")
}

func (d *decoder) skipArray(depth int) error {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == ']' {
		d.i++
		return nil
	}
	for {
		d.ws()
		if err := d.skip(depth); err != nil {
			return err
		}
		d.ws()
		if d.i >= len(d.b) {
			return errEnd
		}
		switch d.b[d.i] {
		case ',':
			d.i++
		case ']':
			d.i++
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

func (d *decoder) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if d.i >= len(d.b) {
			return errEnd
		}
		if d.b[d.i] != word[k] {
			return d.syntax("in literal " + word)
		}
		d.i++
	}
	return nil
}

// number steps over a number with JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	if d.b[d.i] == '-' {
		d.i++
	}
	if d.i >= len(d.b) {
		return errEnd
	}
	switch c := d.b[d.i]; {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.syntax("in numeric literal")
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if err := d.needDigits(); err != nil {
			return err
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if err := d.needDigits(); err != nil {
			return err
		}
	}
	return nil
}

func (d *decoder) digits() {
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
}

func (d *decoder) needDigits() error {
	if d.i >= len(d.b) {
		return errEnd
	}
	if c := d.b[d.i]; c < '0' || c > '9' {
		return d.syntax("in numeric literal")
	}
	d.digits()
	return nil
}

// str steps over a string starting at its opening quote and returns its
// raw contents. plain reports that the contents are printable ASCII with
// no escapes, so they are the string's value as they stand.
func (d *decoder) str() (s []byte, plain bool, err error) {
	b := d.b
	start := d.i + 1
	plain = true
	for i := start; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			d.i = i + 1
			return b[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(b) {
				return nil, false, errEnd
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(b) {
						return nil, false, errEnd
					}
					if unhex(b[k]) < 0 {
						d.i = k
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				d.i = i + 1
				return nil, false, d.syntax("in string escape code")
			}
		case c < ' ':
			d.i = i
			return nil, false, d.syntax("in string literal")
		case c >= utf8.RuneSelf:
			plain = false
			i++
		default:
			i++
		}
	}
	return nil, false, errEnd
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// unquote appends the value of the validated string contents s to dst the
// way encoding/json unescapes it: invalid UTF-8 and unpaired surrogates
// become U+FFFD.
func unquote(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						r2 = hex4(s[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						i += 6
						r = dec
					} else {
						r = utf8.RuneError
					}
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

func hex4(s []byte) rune {
	return unhex(s[0])<<12 | unhex(s[1])<<8 | unhex(s[2])<<4 | unhex(s[3])
}

// parseUint is strconv.ParseUint(tok, 10, 64) for a token that has passed
// number (or any other value, which it rejects): digits only, no sign.
func parseUint(tok []byte) (uint64, bool) {
	var v uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// parseInt is strconv.ParseInt(tok, 10, 64) narrowed to int, as
// encoding/json decodes an int field.
func parseInt(tok []byte) (int, bool) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	mag, ok := parseUint(tok)
	switch {
	case !ok:
		return 0, false
	case neg && mag <= uint64(math.MaxInt)+1:
		return int(-mag), true
	case !neg && mag <= math.MaxInt:
		return int(mag), true
	}
	return 0, false
}

// describe names the JSON type of a value by its first byte.
func describe(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

// describeValue is describe with a number's text, as encoding/json's
// type errors quote it.
func describeValue(tok []byte) string {
	if s := describe(tok[0]); s != "number" {
		return s
	}
	return "number " + string(tok)
}
