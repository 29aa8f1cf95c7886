package history

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"

	"bulksc/internal/chunk"
	"bulksc/internal/mem"
)

// Writer streams a history as NDJSON. It is an observation sink: the
// simulator calls Chunk at each commit instant and Access at each perform
// instant, and the writer serializes without touching simulation state.
// Errors are sticky — the first write failure is retained and every later
// call becomes a no-op, so the hot hooks never need per-call error
// handling; the machine surfaces Close's error once, at end of run.
//
// Chunk and access records are appended by hand into one reused line
// buffer, byte for byte what encoding/json writes for ChunkRec and
// AccessRec (TestWriterMatchesEncodingJSON), without allocating; the
// header, once per file, goes through encoding/json so its strings are
// escaped exactly as before.
//
// A Writer is not safe for concurrent use; the simulator is
// single-goroutine per machine.
//
// The encode path deliberately carries no //sim:hotpath annotation:
// tracing is opt-in observation that is off for every golden, perf and
// sweep configuration — the allocation discipline applies to the machine,
// not to its export taps. TestTraceHashNeutral pins that the taps perturb
// nothing; perf-relevant runs never construct a Writer at all.
//
//sim:observer
type Writer struct {
	bw   *bufio.Writer
	line []byte // the record being appended, reused
	err  error
}

// NewWriter returns a streaming NDJSON writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Header writes the history header. Version and Format are filled in.
func (t *Writer) Header(h Header) {
	if t.err != nil {
		return
	}
	h.Kind = KindHeader
	h.Version = Version
	h.Format = Format
	t.err = json.NewEncoder(t.bw).Encode(&h)
}

// Chunk writes one committed chunk's record from the live chunk state.
// Call at the commit instant, in commit order.
func (t *Writer) Chunk(ch *chunk.Chunk) {
	if t.err != nil {
		return
	}
	t.line = t.line[:0]
	t.putInt(`{"kind":"chunk","proc":`, ch.Proc)
	t.putUint(`,"seq":`, ch.Seq)
	t.putUint(`,"order":`, ch.CommitOrder)
	t.line = append(t.line, `,"ops":[`...)
	for i, a := range ch.Log {
		if i > 0 {
			t.line = append(t.line, ',')
		}
		t.op(a.IsStore, uint64(a.Addr), a.Value)
	}
	t.flush("]}\n")
}

// Access writes one conventional architectural access record. Call at the
// perform instant, in perform order.
func (t *Writer) Access(proc int, po uint64, store bool, a mem.Addr, v uint64, fwd bool) {
	if t.err != nil {
		return
	}
	t.line = t.line[:0]
	t.putInt(`{"kind":"access","proc":`, proc)
	t.putUint(`,"po":`, po)
	if store {
		t.line = append(t.line, `,"store":true`...)
	}
	t.putUint(`,"addr":`, uint64(a))
	t.putUint(`,"val":`, v)
	if fwd {
		t.line = append(t.line, `,"fwd":true`...)
	}
	t.flush("}\n")
}

// op appends one ops element; store is omitted when false.
func (t *Writer) op(store bool, addr, val uint64) {
	if store {
		t.putUint(`{"store":true,"addr":`, addr)
	} else {
		t.putUint(`{"addr":`, addr)
	}
	t.putUint(`,"val":`, val)
	t.line = append(t.line, '}')
}

// putInt and putUint append text (a key and its punctuation) and a number.
func (t *Writer) putInt(text string, v int) {
	t.line = strconv.AppendInt(append(t.line, text...), int64(v), 10)
}

func (t *Writer) putUint(text string, v uint64) {
	t.line = strconv.AppendUint(append(t.line, text...), v, 10)
}

// flush appends the record's closing text and writes the line.
func (t *Writer) flush(end string) {
	t.line = append(t.line, end...)
	_, t.err = t.bw.Write(t.line)
}

// Close flushes buffered records and returns the first error encountered
// anywhere in the stream. The underlying io.Writer is not closed.
func (t *Writer) Close() error {
	if t.err != nil {
		return t.err
	}
	t.err = t.bw.Flush()
	return t.err
}
