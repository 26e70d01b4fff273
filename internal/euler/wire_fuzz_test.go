package euler

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// bandSeeds are the checked-in corpus for FuzzDecodeBand: every v3
// payload family the coordinator and nodes decode off the wire — absorb
// bands (delta and bitmap vertex sets), body/state/remote-batch blobs —
// plus legacy v2-shaped and truncated inputs.  Refresh testdata/fuzz
// with WRITE_FUZZ_CORPUS=1 go test ./internal/euler -run TestWriteFuzzCorpus.
func bandSeeds() [][]byte {
	var seeds [][]byte

	// A real absorb band, encoded by the node-side writer itself.
	wp := &WorkerProgram{visited: make([]atomic.Uint32, 8)}
	res := &Phase1Result{
		Recs: []PathRec{
			{ID: 7, Type: OBPath, Src: 3, Dst: 5, Level: 0, Part: 1, Items: 4},
			{ID: 9, Type: OBPath + 1, Src: 5, Dst: 5, Level: 1, Part: 1, Items: 2},
		},
		Seeds:   []PathID{9},
		Visited: []graph.VertexID{1, 2, 3, 5, 8},
	}
	if err := wp.absorb(2, res, true); err != nil {
		panic(err)
	}
	band := wp.band

	// The same band with a spilled body record prepended after the marker.
	withBody := []byte{WireV3, bandBody}
	withBody = binary.AppendVarint(withBody, 7)
	withBody = binary.AppendUvarint(withBody, 3)
	withBody = append(withBody, 0xAA, 0xBB, 0xCC)
	withBody = append(withBody, band[1:]...)

	// A body whose ID names part 9, outside the sink's eight shards.
	foreignBody := []byte{WireV3, bandBody}
	foreignBody = binary.AppendVarint(foreignBody, MakePathID(0, 9, 0))
	foreignBody = binary.AppendUvarint(foreignBody, 1)
	foreignBody = append(foreignBody, 0xAA)

	// A dense visited set, so the band carries a span bitmap.
	dense := make([]graph.VertexID, 200)
	for i := range dense {
		dense[i] = graph.VertexID(i)
	}
	wpDense := &WorkerProgram{visited: make([]atomic.Uint32, 8)}
	if err := wpDense.absorb(0, &Phase1Result{Visited: dense}, false); err != nil {
		panic(err)
	}

	seeds = append(seeds,
		nil,
		band,
		withBody,
		wpDense.band,
		band[:len(band)/2], // truncated mid-record
		band[1:],           // marker stripped: a v2-shaped legacy band
		refAppendBody(nil, []Item{{Kind: ItemEdge, Ref: 4, From: 1, To: 2}, {Kind: ItemPath, Ref: 9, From: 2, To: 1}}),
		EncodeState(&PartState{
			Parent: 3,
			Leaves: []int{1, 3},
			Local:  []CoarseEdge{{Kind: ItemEdge, Ref: 2, U: 0, V: 1}},
			Remote: [][]RemoteEdge{{{Local: 1, Remote: 9, Edge: 12, ConvertLevel: 1}}},
		}),
		AppendRemoteBatch(nil, []RemoteEdge{{Local: 0, Remote: 4, Edge: 7}}),
		foreignBody,
	)
	return seeds
}

// FuzzDecodeBand drives arbitrary bytes through every euler wire decoder
// the cluster exposes to a peer: the coordinator's absorb-band sink and
// the body/state/remote-batch codecs.  Decoders must reject garbage with
// an error — never panic, never index out of range — and anything they
// accept must survive an encode/decode round trip.
func FuzzDecodeBand(f *testing.F) {
	for _, s := range bandSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Coordinator side: absorb the band into a real registry, drain
		// the broadcast delta as the barrier would, and seal as the run's
		// end does, which may reject the band's bodies but never panic.
		reg := NewRegistry(nil, 256, 8)
		sink := NewAbsorbSink(reg)
		if err := sink.Apply(0, 0, 8, data); err == nil {
			if _, err := sink.TakeDelta(0); err != nil {
				t.Fatalf("TakeDelta after successful Apply: %v", err)
			}
			_ = reg.Seal()
		}

		if items, err := decodeBody(data); err == nil {
			again, err := decodeBody(refAppendBody(nil, items))
			if err != nil || !reflect.DeepEqual(items, again) {
				t.Fatalf("body round trip diverged: %v", err)
			}
			src, _ := typedBody(items)
			if typed, err := appendBodyItems(nil, data, src); err == nil {
				back, err := appendBodyItems(nil, appendBody(nil, src, typed), src)
				if err != nil || !slices.Equal(typed, back) {
					t.Fatalf("typed body round trip diverged: %v", err)
				}
			}
		}
		if st, err := DecodeState(data); err == nil {
			again, err := DecodeState(EncodeState(st))
			if err != nil || !reflect.DeepEqual(st, again) {
				t.Fatalf("state round trip diverged: %v", err)
			}
		}
		if edges, err := DecodeRemoteBatch(data); err == nil {
			again, err := DecodeRemoteBatch(AppendRemoteBatch(nil, edges))
			if err != nil || !reflect.DeepEqual(edges, again) {
				t.Fatalf("remote batch round trip diverged: %v", err)
			}
		}
		_, _ = DecodeWorkerResult(data)
	})
}

// bodySeeds are the checked-in corpus for FuzzBodyCursor: the bodies a
// real run spilled (a 6x6 torus in two parts: edge items, path
// references, cycles and OB paths), every truncation of the shortest of
// them, and the header shapes the cursor rejects before the first item.
func bodySeeds(tb testing.TB) [][]byte {
	g := gen.Torus(6, 6)
	res, err := Run(g, partition.LDG(g, 2, 1), Config{})
	if err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	shortest := -1
	for _, rec := range res.Registry.recs {
		body, err := encodedBody(res.Registry, rec.ID)
		if err != nil {
			tb.Fatal(err)
		}
		if rec.Items > 1 && (shortest < 0 || len(body) < len(seeds[shortest])) {
			shortest = len(seeds)
		}
		seeds = append(seeds, body)
	}
	for cut := range seeds[shortest] {
		seeds = append(seeds, seeds[shortest][:cut])
	}
	return append(seeds,
		append(slices.Clone(seeds[shortest]), 0), // trailing byte
		seeds[shortest][1:],                      // marker stripped: a v2-shaped legacy body
		[]byte{WireV3, 0x7f},                     // count beyond the payload
		[]byte{WireV3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0},
	)
}

// refDecodeBody is the slice-building body decoder this package had
// before bodyCursor became the only parser, kept as the reference the
// cursor is fuzzed against.  Unlike decodeBody it returns the
// items decoded before an error, so the cursor's prefix can be checked.
func refDecodeBody(buf []byte) ([]Item, error) {
	d := &decoder{buf: buf}
	if err := d.marker("body"); err != nil {
		return nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.off)/3 {
		return nil, fmt.Errorf("euler: body item count %d exceeds payload size", n)
	}
	nbitmap := (int(n) + 7) / 8
	if len(d.buf)-d.off < nbitmap {
		return nil, fmt.Errorf("euler: truncated body kind bitmap at offset %d", d.off)
	}
	bitmap := d.buf[d.off : d.off+nbitmap]
	d.off += nbitmap
	items := make([]Item, 0, n)
	var prevRef, prevTo int64
	for i := uint64(0); i < n; i++ {
		kind := ItemKind(bitmap[i>>3] >> (i & 7) & 1)
		dRef, n1 := binary.Varint(d.buf[d.off:])
		if n1 <= 0 {
			return items, fmt.Errorf("euler: truncated varint at offset %d", d.off)
		}
		d.off += n1
		dFrom, n2 := binary.Varint(d.buf[d.off:])
		if n2 <= 0 {
			return items, fmt.Errorf("euler: truncated varint at offset %d", d.off)
		}
		d.off += n2
		hop, n3 := binary.Varint(d.buf[d.off:])
		if n3 <= 0 {
			return items, fmt.Errorf("euler: truncated varint at offset %d", d.off)
		}
		d.off += n3
		ref := prevRef + dRef
		from := prevTo + dFrom
		to := from + hop
		items = append(items, Item{Kind: kind, Ref: ref, From: from, To: to})
		prevRef, prevTo = ref, to
	}
	return items, d.done()
}

// FuzzBodyCursor drives arbitrary bytes through the body cursor every
// encoded body is decoded with — bodies reach the coordinator's registry
// over the cluster wire and are first parsed there.  The cursor must never
// panic and must agree with the reference decoder item for item and error
// for error, as must decodeBody, which drains a cursor.  The typed decoder
// must accept exactly the bodies with a typed form and re-encode them to
// the reference bytes.
func FuzzBodyCursor(f *testing.F) {
	for _, s := range bodySeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := refDecodeBody(data)
		var got []Item
		c, err := newBodyCursor(data)
		for err == nil {
			it, ok, nextErr := c.next()
			if !ok {
				err = nextErr
				break
			}
			got = append(got, it)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("cursor error %v, reference error %v", err, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("cursor items %v, reference items %v", got, want)
		}
		items, err := decodeBody(data)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && !slices.Equal(items, want)) || (err != nil && items != nil) {
			t.Fatalf("decodeBody = %v, %v; reference %v, %v", items, err, want, wantErr)
		}

		// The typed round trip: a body chained from its first item's
		// source with no negative ref decodes to its typed items, which
		// encode back to the reference bytes; any other body is refused,
		// with a bodyError when it parses.
		var src graph.VertexID
		if len(want) > 0 {
			src = want[0].From
		}
		typed, err := appendBodyItems(nil, data, src)
		var be *bodyError
		switch {
		case wantErr != nil:
			if err == nil {
				t.Fatalf("typed decode accepted a body the reference refuses (%v)", wantErr)
			}
		case !hasTypedForm(want):
			if !errors.As(err, &be) {
				t.Fatalf("typed decode of an unchained body: %v, want a bodyError", err)
			}
		default:
			wantSrc, wantTyped := typedBody(want)
			if err != nil || wantSrc != src || !slices.Equal(typed, wantTyped) {
				t.Fatalf("typed decode = %v, %v; want %v", typed, err, wantTyped)
			}
			if enc, ref := appendBody(nil, src, typed), refAppendBody(nil, want); !bytes.Equal(enc, ref) {
				t.Fatalf("typed re-encode %x, reference %x", enc, ref)
			}
		}
	})
}

// hasTypedForm reports whether items chain, each leaving from where the
// previous one ends, and carry no negative ref.
func hasTypedForm(items []Item) bool {
	for i, it := range items {
		if it.Ref < 0 || i > 0 && it.From != items[i-1].To {
			return false
		}
	}
	return true
}

// TestWriteFuzzCorpus refreshes the checked-in seed corpora from
// bandSeeds and bodySeeds.  Guarded so a normal test run never rewrites
// testdata.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to refresh testdata/fuzz seeds")
	}
	writeFuzzCorpus(t, "FuzzDecodeBand", bandSeeds())
	writeFuzzCorpus(t, "FuzzBodyCursor", bodySeeds(t))
}

func writeFuzzCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
