package euler

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// TestV2PayloadsAbortProtocol feeds each v3 decoder a plausible v2
// payload (count/ID varints first, no 0xE3 marker).  Every one must fail
// with the typed protocol abort — errors.As finds a bsp.AbortError with
// Code AbortProtocol — and bsp.Retryable must report false, so a
// mixed-version peer fails deterministically instead of being retried.
func TestV2PayloadsAbortProtocol(t *testing.T) {
	// v2 shapes: each payload family led with a small varint (a count,
	// worker index, or parent ID) where v3 expects the marker byte.
	v2Body := binary.AppendUvarint(nil, 2)
	v2Body = append(v2Body, 4, 0, 2, 2, 6, 0, 2, 2)
	v2State := binary.AppendVarint(nil, 3)
	v2State = binary.AppendUvarint(v2State, 0)
	v2Batch := binary.AppendUvarint(nil, 1)
	v2Batch = append(v2Batch, 2, 4, 6, 0)
	v2Band := append([]byte{'A'}, binary.AppendUvarint(nil, 0)...)
	v2Plan := binary.AppendUvarint(nil, 4)
	v2Delta := binary.AppendUvarint(nil, 3)
	v2Delta = append(v2Delta, 2, 2, 2)

	reg := NewRegistry(nil, 64, 4)
	sink := NewAbsorbSink(reg)
	wp := &WorkerProgram{visited: make([]atomic.Uint32, 2)}

	cases := []struct {
		name   string
		decode func([]byte) error
		v2     []byte
	}{
		{"body", func(b []byte) error { _, err := decodeBody(b); return err }, v2Body},
		{"state", func(b []byte) error { _, err := DecodeState(b); return err }, v2State},
		{"remote batch", func(b []byte) error { _, err := DecodeRemoteBatch(b); return err }, v2Batch},
		{"plan slice", func(b []byte) error { _, err := DecodePlanSlice(b); return err }, v2Plan},
		{"absorb band", func(b []byte) error { return sink.Apply(0, 0, 4, b) }, v2Band},
		{"visited broadcast", func(b []byte) error { return wp.ApplySideband(0, b) }, v2Delta},
	}
	for _, tc := range cases {
		err := tc.decode(tc.v2)
		if err == nil {
			t.Errorf("%s: v2 payload decoded without error", tc.name)
			continue
		}
		var abort *bsp.AbortError
		if !errors.As(err, &abort) {
			t.Errorf("%s: error %v is not a bsp.AbortError", tc.name, err)
			continue
		}
		if abort.Code != bsp.AbortProtocol {
			t.Errorf("%s: abort code %v, want AbortProtocol", tc.name, abort.Code)
		}
		if bsp.Retryable(err) {
			t.Errorf("%s: protocol abort must not be retryable", tc.name)
		}
	}
}

// TestV3ReencodeByteIdentical decodes each v3 codec's output and
// re-encodes it: the bytes must match exactly, which is what lets the
// coordinator relay and cache payloads without ever re-framing them.
func TestV3ReencodeByteIdentical(t *testing.T) {
	items := []Item{
		{Kind: ItemEdge, Ref: 5, From: 0, To: 3},
		{Kind: ItemPath, Ref: -2, From: 3, To: 3},
		{Kind: ItemEdge, Ref: 40, From: 3, To: 1},
	}
	body := refAppendBody(nil, items)
	decItems, err := decodeBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if again := refAppendBody(nil, decItems); !bytes.Equal(again, body) {
		t.Fatalf("body re-encode diverged:\n  %x\n  %x", again, body)
	}
	// A chained body with no negative ref has a typed form, which the
	// in-process encoder writes back to the same bytes.
	chained := refAppendBody(nil, []Item{
		{Kind: ItemEdge, Ref: 5, From: 0, To: 3},
		{Kind: ItemPath, Ref: 2, From: 3, To: 3},
		{Kind: ItemEdge, Ref: 40, From: 3, To: 1},
	})
	typed, err := appendBodyItems(nil, chained, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again := appendBody(nil, 0, typed); !bytes.Equal(again, chained) {
		t.Fatalf("typed body re-encode diverged:\n  %x\n  %x", again, chained)
	}

	st := &PartState{
		Parent: 2,
		Leaves: []int{0, 2},
		Local: []CoarseEdge{
			{U: 1, V: 4, Kind: ItemEdge, Ref: 9},
			{U: 4, V: 1, Kind: ItemPath, Ref: 11},
		},
		Remote: [][]RemoteEdge{{{Local: 4, Remote: 17, Edge: 23, ConvertLevel: 2}}},
		Stubs:  []Stub{{Vertex: 1, ConvertLevel: 1, Count: 3}},
	}
	enc := EncodeState(st)
	decSt, err := DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if again := EncodeState(decSt); !bytes.Equal(again, enc) {
		t.Fatalf("state re-encode diverged:\n  %x\n  %x", again, enc)
	}

	edges := []RemoteEdge{{Local: 0, Remote: 7, Edge: 1}, {Local: 7, Remote: 0, Edge: 2, ConvertLevel: 1}}
	batch := AppendRemoteBatch(nil, edges)
	decEdges, err := DecodeRemoteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if again := AppendRemoteBatch(nil, decEdges); !bytes.Equal(again, batch) {
		t.Fatalf("remote batch re-encode diverged:\n  %x\n  %x", again, batch)
	}
}

// TestVertexSetCodecAdaptive pins the two set representations: sparse
// scatters stay delta-streamed, dense runs switch to the span bitmap,
// and both decode back to the same membership.
func TestVertexSetCodecAdaptive(t *testing.T) {
	sparse := []graph.VertexID{3, 900000, 5, 123456}
	dense := make([]graph.VertexID, 300)
	for i := range dense {
		dense[i] = graph.VertexID(i + 40)
	}
	for _, tc := range []struct {
		name string
		vs   []graph.VertexID
		mode byte
	}{
		{"sparse scatter", sparse, vsetDeltas},
		{"dense run", dense, vsetBitmap},
	} {
		enc := appendVertexSet(nil, tc.vs)
		// Layout: uvarint count, then the mode byte.
		d := &decoder{buf: enc}
		if _, err := d.uvarint(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if mode := enc[d.off]; mode != tc.mode {
			t.Errorf("%s: encoded as mode %d, want %d", tc.name, mode, tc.mode)
		}
		got, err := decodeVertexSet(&decoder{buf: enc})
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		want := map[graph.VertexID]bool{}
		for _, v := range tc.vs {
			want[v] = true
		}
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d vertices, want %d", tc.name, len(got), len(want))
		}
		for _, v := range got {
			if !want[v] {
				t.Fatalf("%s: decoded stray vertex %d", tc.name, v)
			}
		}
	}
}
