package history

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bulksc/internal/chunk"
	"bulksc/internal/mem"
)

// FuzzHistoryReader holds Read to the reflection-based reader it replaced
// (readRef): for every input both accept or both reject, and an accepted
// input yields a reflect.DeepEqual History. The checked-in corpus under
// testdata/fuzz/FuzzHistoryReader covers the corners where encoding/json
// is easy to get wrong: key case and Unicode folding, escaped keys and
// kinds, null fields, duplicate keys, "ops":[] against "ops":null,
// integer edge cases and fields of the other record shape.
func FuzzHistoryReader(f *testing.F) {
	f.Add(genHistory(rand.New(rand.NewSource(1)), "chunk", 3, 4))
	f.Add(genHistory(rand.New(rand.NewSource(2)), "access", 6, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		want, refErr := readRef(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Read error %v, encoding/json reader error %v", err, refErr)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "history: ") {
				t.Fatalf("error %q lacks the history: prefix", err)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Read differs from the encoding/json reader:\n got %+v\nwant %+v", got, want)
		}
	})
}

// randChunk returns a chunk whose log mixes loads and stores, with
// addresses and values drawn to cover one-digit to max-uint64 widths.
func randChunk(rng *rand.Rand, proc int, seq, order uint64, ops int) *chunk.Chunk {
	ch := &chunk.Chunk{Proc: proc, Seq: seq, CommitOrder: order, Log: make([]chunk.AccessRec, ops)}
	for i := range ch.Log {
		ch.Log[i] = chunk.AccessRec{
			IsStore: rng.Intn(4) == 0,
			Addr:    mem.Addr(randWidth(rng)),
			Value:   randWidth(rng),
		}
	}
	return ch
}

func randWidth(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return uint64(rng.Intn(10))
	case 1:
		return math.MaxUint64
	case 2:
		return 1 << 29 >> rng.Intn(20) << 3
	}
	return rng.Uint64()
}

// genHistory writes a history of n records of one shape with a header;
// chunk records carry ops accesses each.
func genHistory(rng *rand.Rand, shape string, n, ops int) []byte {
	const procs = 8
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header(Header{Model: "gen", Procs: procs, App: "radix", Seed: 1, Work: 20000})
	po := make([]uint64, procs)
	for i := 0; i < n; i++ {
		p := rng.Intn(procs)
		po[p]++
		if shape == "chunk" {
			w.Chunk(randChunk(rng, p, po[p], uint64(i+1), ops))
		} else {
			w.Access(p, po[p], rng.Intn(4) == 0, mem.Addr(randWidth(rng)), randWidth(rng), rng.Intn(8) == 0)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestWriterMatchesEncodingJSON requires each line the Writer appends to
// equal json.Marshal of the same record plus a newline: the hand-written
// encoder keeps encoding/json's field order, omitempty and number text.
func TestWriterMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	check := func(rec any) {
		t.Helper()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("Writer line\n%s\nencoding/json\n%s", buf.Bytes(), want)
		}
		buf.Reset()
	}
	for i := 0; i < 2000; i++ {
		ch := randChunk(rng, rng.Intn(1024), rng.Uint64(), randWidth(rng), rng.Intn(5))
		switch i {
		case 0:
			ch.Log = nil // an empty log still writes "ops":[]
		case 1:
			ch.Proc, ch.Seq, ch.CommitOrder = math.MaxInt, math.MaxUint64, math.MaxUint64
		case 2:
			ch.Proc = -1
		}
		w.Chunk(ch)
		rec := ChunkRec{Kind: KindChunk, Proc: ch.Proc, Seq: ch.Seq, Order: ch.CommitOrder, Ops: []Op{}}
		for _, a := range ch.Log {
			rec.Ops = append(rec.Ops, Op{Store: a.IsStore, Addr: uint64(a.Addr), Val: a.Value})
		}
		check(&rec)

		// Every store/fwd combination, cycling.
		a := AccessRec{
			Kind: KindAccess, Proc: rng.Intn(1024), PO: randWidth(rng),
			Store: i&1 != 0, Addr: randWidth(rng), Val: randWidth(rng), Fwd: i&2 != 0,
		}
		w.Access(a.Proc, a.PO, a.Store, mem.Addr(a.Addr), a.Val, a.Fwd)
		check(&a)
	}
}

func BenchmarkRead(b *testing.B) {
	// Sized like a 20k-instruction radix audit history: 296 chunk records
	// of ~190 ops (1.7 MB) under BulkSC, 57k access records under SC.
	histories := []struct {
		shape string
		data  []byte
	}{
		{"chunk", genHistory(rand.New(rand.NewSource(1)), "chunk", 296, 190)},
		{"access", genHistory(rand.New(rand.NewSource(1)), "access", 56862, 0)},
	}
	readers := []struct {
		name string
		read func(*bytes.Reader) (*History, error)
	}{
		{"codec", func(r *bytes.Reader) (*History, error) { return Read(r) }},
		{"encoding-json", func(r *bytes.Reader) (*History, error) { return readRef(r) }},
	}
	for _, h := range histories {
		for _, rd := range readers {
			b.Run(h.shape+"/"+rd.name, func(b *testing.B) {
				b.SetBytes(int64(len(h.data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := rd.read(bytes.NewReader(h.data)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// discard counts bytes so the writer benchmarks measure encoding only.
type discard struct{ n int64 }

func (d *discard) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }

func BenchmarkWriterChunk(b *testing.B) {
	ch := randChunk(rand.New(rand.NewSource(1)), 3, 1, 1, 190)
	var out discard
	w := NewWriter(&out)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Chunk(ch)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(out.n / int64(b.N))
}

func BenchmarkWriterAccess(b *testing.B) {
	var out discard
	w := NewWriter(&out)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Access(i&7, uint64(i), i&3 == 0, mem.Addr(504059808+8*i), uint64(i), false)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(out.n / int64(b.N))
}
