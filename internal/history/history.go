// Package history defines the portable NDJSON trace format for memory-
// consistency histories, plus a streaming writer and a validating reader.
//
// A history is a newline-delimited sequence of JSON records describing one
// execution's committed memory operations. Two record shapes carry the
// operations:
//
//   - "chunk" records — one per committed chunk, in global commit order,
//     carrying the chunk's program-order access log and the commit order
//     the implementation claims for it. This is the BulkSC shape: the
//     arbiter names a total order of atomic chunks, and the offline
//     checker (internal/history/gk) verifies the named order explains
//     every observed value.
//   - "access" records — one per architectural memory access at its
//     perform instant, in perform order, carrying a per-processor
//     program-order index. This is the conventional-machine shape (the
//     SC/RC/SC++ baselines), and also the natural shape for histories
//     imported from other systems: any trace of reads and writes with
//     per-thread ordering can be expressed as access records.
//
// The format is deliberately self-contained — integers, no repo-internal
// types — so histories authored by other tools check cleanly through
// cmd/scchk. A minimal external history:
//
//	{"kind":"header","version":1,"format":"bulksc-history","procs":2}
//	{"kind":"access","proc":0,"po":1,"store":true,"addr":64,"val":1}
//	{"kind":"access","proc":1,"po":1,"addr":64,"val":1}
//
// The header is optional (defaults apply) but recommended; unknown record
// kinds and unknown header versions are errors, unknown *fields* are
// ignored so the format can grow.
//
// Read accepts what encoding/json would decode into these types, and
// nothing else (FuzzHistoryReader holds it to that):
//
//   - each non-blank line is exactly one JSON object — strict JSON, no
//     trailing data, nesting at most 10000 deep;
//   - keys match fields case-insensitively (Unicode simple folding, so
//     "KIND" and "Kind" are "kind"), escaped or not; a repeated key's last
//     value wins;
//   - unknown fields, and the fields of the other record shape, are
//     ignored whatever JSON value they hold;
//   - a known field must hold its type: a string kind, booleans for
//     store/fwd, integers that fit for the rest (no fraction or exponent,
//     no sign on the unsigned seq/order/po/addr/val), an array of objects
//     for ops;
//   - null leaves a field as it was — its zero value, unless the key
//     came earlier in the line — except that "ops":null makes ops a nil
//     slice; "ops":[] is an empty non-nil one.
//
// Chunk and access records are decoded and encoded by hand; the header,
// one line per file, goes through encoding/json.
//
// Export is wired behind core.Config.TraceWriter and `sweep -exp trace
// -trace-out`; it is pure observation — the writer hooks the same commit
// and perform instants the online witness checker audits, adds no
// simulation events, and therefore cannot perturb the determinism or
// witness golden hashes.
package history

import "fmt"

// Version is the current format version. Readers accept histories whose
// header declares any version in [1, Version].
const Version = 1

// Format is the magic string a header's "format" field must carry (when a
// header is present).
const Format = "bulksc-history"

// Kinds of NDJSON records.
const (
	KindHeader = "header"
	KindChunk  = "chunk"
	KindAccess = "access"
)

// Header is the optional first record of a history.
type Header struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	Format  string `json:"format"`
	// Model names the consistency implementation that produced the
	// history ("BulkSC", "SC", "RC", ...). Informational.
	Model string `json:"model,omitempty"`
	// Procs is the processor count; 0 means "infer from the records".
	Procs int    `json:"procs,omitempty"`
	App   string `json:"app,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	Work  int    `json:"work,omitempty"`
}

// Op is one memory access inside a chunk record, in program order.
type Op struct {
	// Store distinguishes writes from reads (absent = read).
	Store bool `json:"store,omitempty"`
	// Addr is the byte address of the accessed word.
	Addr uint64 `json:"addr"`
	// Val is the value written (stores) or observed (loads).
	Val uint64 `json:"val"`
}

// ChunkRec is one committed chunk: an atomic block of accesses with a
// claimed position in the global commit order.
type ChunkRec struct {
	Kind string `json:"kind"`
	// Proc is the committing processor.
	Proc int `json:"proc"`
	// Seq is the chunk's per-processor sequence number (strictly
	// increasing per processor).
	Seq uint64 `json:"seq"`
	// Order is the global commit order the implementation claims for the
	// chunk (strictly increasing across the history; gaps are fine — a
	// squashed chunk may consume an order that never commits).
	Order uint64 `json:"order"`
	// Ops is the chunk's access log in program order.
	Ops []Op `json:"ops"`
}

// AccessRec is one conventional architectural access at its perform
// instant. Records appear in perform order.
type AccessRec struct {
	Kind string `json:"kind"`
	Proc int    `json:"proc"`
	// PO is the processor's program-order index for the operation
	// (strictly increasing per processor).
	PO    uint64 `json:"po"`
	Store bool   `json:"store,omitempty"`
	Addr  uint64 `json:"addr"`
	Val   uint64 `json:"val"`
	// Fwd marks a load served from the processor's own store buffer; such
	// loads are exempt from the perform-order coherence obligation (the
	// ordering debt is collected when the buffered store performs).
	Fwd bool `json:"fwd,omitempty"`
}

// History is a fully parsed trace. Chunks and Accesses each preserve file
// order, which is the claimed commit/perform order respectively.
type History struct {
	Header   Header
	Chunks   []ChunkRec
	Accesses []AccessRec
}

// Procs returns the processor count: the header's claim when present,
// otherwise 1 + the highest processor id appearing in any record.
func (h *History) Procs() int {
	if h.Header.Procs > 0 {
		return h.Header.Procs
	}
	max := -1
	for i := range h.Chunks {
		if h.Chunks[i].Proc > max {
			max = h.Chunks[i].Proc
		}
	}
	for i := range h.Accesses {
		if h.Accesses[i].Proc > max {
			max = h.Accesses[i].Proc
		}
	}
	return max + 1
}

// Ops returns the total operation count across both record shapes.
func (h *History) Ops() int {
	n := len(h.Accesses)
	for i := range h.Chunks {
		n += len(h.Chunks[i].Ops)
	}
	return n
}

// validate checks the structural invariants that make a history checkable
// at all — nonnegative processor ids and nonempty record bodies. Ordering
// and value obligations are deliberately NOT checked here: those are the
// checker's verdict, not a parse error.
func (h *History) validate() error {
	for i := range h.Chunks {
		c := &h.Chunks[i]
		if c.Proc < 0 {
			return fmt.Errorf("chunk record %d: negative proc %d", i, c.Proc)
		}
	}
	for i := range h.Accesses {
		a := &h.Accesses[i]
		if a.Proc < 0 {
			return fmt.Errorf("access record %d: negative proc %d", i, a.Proc)
		}
	}
	if p := h.Header.Procs; p > 0 {
		for i := range h.Chunks {
			if h.Chunks[i].Proc >= p {
				return fmt.Errorf("chunk record %d: proc %d outside header's %d processors",
					i, h.Chunks[i].Proc, p)
			}
		}
		for i := range h.Accesses {
			if h.Accesses[i].Proc >= p {
				return fmt.Errorf("access record %d: proc %d outside header's %d processors",
					i, h.Accesses[i].Proc, p)
			}
		}
	}
	return nil
}
