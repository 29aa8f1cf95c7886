package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// readRef is the reflection-based reader the hand-written codec replaced,
// kept as the test oracle: FuzzHistoryReader requires Read to accept
// exactly the inputs readRef accepts and to return a reflect.DeepEqual
// History for them, and BenchmarkRead runs it beside Read.
func readRef(r io.Reader) (*History, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	h := &History{}
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		// Peek the record kind without committing to a shape.
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("history: line %d: %w", line, err)
		}
		switch probe.Kind {
		case KindHeader:
			if sawHeader {
				return nil, fmt.Errorf("history: line %d: duplicate header", line)
			}
			if len(h.Chunks) > 0 || len(h.Accesses) > 0 {
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
			var c ChunkRec
			if err := json.Unmarshal(raw, &c); err != nil {
				return nil, fmt.Errorf("history: line %d: chunk: %w", line, err)
			}
			h.Chunks = append(h.Chunks, c)
		case KindAccess:
			var a AccessRec
			if err := json.Unmarshal(raw, &a); err != nil {
				return nil, fmt.Errorf("history: line %d: access: %w", line, err)
			}
			h.Accesses = append(h.Accesses, a)
		case "":
			return nil, fmt.Errorf("history: line %d: record has no \"kind\" field", line)
		default:
			return nil, fmt.Errorf("history: line %d: unknown record kind %q", line, probe.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	if !sawHeader {
		h.Header = Header{Kind: KindHeader, Version: 1}
	}
	if len(h.Chunks) == 0 && len(h.Accesses) == 0 {
		return nil, fmt.Errorf("history: no operation records")
	}
	if err := h.validate(); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	return h, nil
}
