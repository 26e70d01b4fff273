package euler

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// refAppendBody is the []Item body encoder this package had before bodies
// were held typed, kept as the reference appendBody must match byte for
// byte and as the way tests write an arbitrary (unchained) body.
func refAppendBody(dst []byte, items []Item) []byte {
	dst = append(dst, WireV3)
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	var acc byte
	for i, it := range items {
		acc |= byte(it.Kind&1) << (i & 7)
		if i&7 == 7 {
			dst = append(dst, acc)
			acc = 0
		}
	}
	if len(items)&7 != 0 {
		dst = append(dst, acc)
	}
	var prevRef, prevTo int64
	for _, it := range items {
		dst = binary.AppendVarint(dst, it.Ref-prevRef)
		dst = binary.AppendVarint(dst, it.From-prevTo)
		dst = binary.AppendVarint(dst, it.To-it.From)
		prevRef, prevTo = it.Ref, it.To
	}
	return dst
}

// decodeBody drains a body cursor into Items, each with its From: the
// form tests compare bodies in.
func decodeBody(buf []byte) ([]Item, error) {
	c, err := newBodyCursor(buf)
	if err != nil {
		return nil, err
	}
	items := make([]Item, 0, c.n)
	for {
		it, ok, err := c.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return items, nil
		}
		items = append(items, it)
	}
}

// encodedBody returns the bytes of path id's body in a sealed registry,
// encoding a typed one as collectBodies does.
func encodedBody(r *Registry, id PathID) ([]byte, error) {
	if k, ok := r.rank(id); ok && r.typed != nil && r.typed[k] != nil {
		return appendBody(nil, r.recs[k].Src, r.typed[k]), nil
	}
	return r.body(id)
}

// typedBody returns a chained body's typed items and the vertex its
// first item leaves from.
func typedBody(items []Item) (graph.VertexID, []bodyItem) {
	var src graph.VertexID
	if len(items) > 0 {
		src = items[0].From
	}
	body := make([]bodyItem, len(items))
	for i, it := range items {
		body[i] = bodyItem{ref: packRef(it.Kind, it.Ref), to: it.To}
	}
	return src, body
}

// chainedItems is a random body with a typed form: n items chained from
// src, refs anywhere in [0, 2⁶³) so that their deltas run both ways, and
// hops of either sign.
func chainedItems(rng *rand.Rand, n int, src graph.VertexID) []Item {
	items := make([]Item, n)
	at := src
	for i := range items {
		kind := ItemEdge
		if rng.Intn(3) == 0 {
			kind = ItemPath
		}
		ref := rng.Int63n(1 << uint(1+rng.Intn(62)))
		if kind == ItemPath && ref == 0 {
			ref = 1
		}
		to := at + rng.Int63n(1<<20) - 1<<19
		items[i] = Item{Kind: kind, Ref: ref, From: at, To: to}
		at = to
	}
	return items
}

// TestTypedBodyEncoding pins the typed body codec to the []Item one: the
// bytes are the reference encoder's, decoding gives the typed items back,
// and a body with no typed form is refused with a bodyError.
func TestTypedBodyEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]Item{
		nil,
		{{Kind: ItemEdge, Ref: 5, From: 3, To: 4}},
		{{Kind: ItemPath, Ref: MakePathID(2, 7, 9), From: 9, To: 1}},
		{{Kind: ItemPath, Ref: math.MaxInt64, From: 0, To: math.MaxInt64}},
		// Descending refs and vertices: every delta negative.
		{{Kind: ItemEdge, Ref: 900, From: 50, To: 40}, {Kind: ItemPath, Ref: 30, From: 40, To: 2}, {Kind: ItemEdge, Ref: 0, From: 2, To: 0}},
	}
	for n := 0; n < 40; n++ {
		cases = append(cases, chainedItems(rng, rng.Intn(70), rng.Int63n(1<<40)))
	}
	for ci, items := range cases {
		src, body := typedBody(items)
		enc := appendBody(nil, src, body)
		if want := refAppendBody(nil, items); !bytes.Equal(enc, want) {
			t.Fatalf("case %d: appendBody %x, reference %x", ci, enc, want)
		}
		got, err := appendBodyItems(nil, enc, src)
		if err != nil || !slices.Equal(got, body) {
			t.Fatalf("case %d: decoded %v, %v; want %v", ci, got, err, body)
		}
		// Appending keeps what dst held.
		lead := []bodyItem{{ref: 1, to: 2}}
		got, err = appendBodyItems(lead, enc, src)
		if err != nil || !slices.Equal(got, append(slices.Clone(lead), body...)) {
			t.Fatalf("case %d: appended %v, %v", ci, got, err)
		}
	}

	for _, tc := range []struct {
		name  string
		items []Item
		src   graph.VertexID
		item  uint64
	}{
		{"first from is not the source", []Item{edgeItem(1, 4, 5)}, 3, 0},
		{"from is not the previous to", []Item{edgeItem(1, 3, 5), edgeItem(2, 5, 6), edgeItem(3, 7, 3)}, 3, 2},
		{"negative edge ref", []Item{edgeItem(1, 3, 5), edgeItem(-2, 5, 3)}, 3, 1},
		{"negative path ref", []Item{pathItem(-1, 3, 4)}, 3, 0},
	} {
		_, err := appendBodyItems(nil, refAppendBody(nil, tc.items), tc.src)
		var be *bodyError
		if !errors.As(err, &be) || be.item != tc.item {
			t.Errorf("%s: err = %v, want a bodyError at item %d", tc.name, err, tc.item)
		}
	}
}

func TestBodyRoundTrip(t *testing.T) {
	items := []Item{
		{Kind: ItemEdge, Ref: 42, From: 1, To: 2},
		{Kind: ItemPath, Ref: MakePathID(1, 2, 3), From: 2, To: 9},
		{Kind: ItemEdge, Ref: 0, From: 9, To: 1},
	}
	got, err := decodeBody(refAppendBody(nil, items))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, items) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, items)
	}
}

func TestBodyEmpty(t *testing.T) {
	got, err := decodeBody(refAppendBody(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestBodyCorruption(t *testing.T) {
	buf := refAppendBody(nil, []Item{{Kind: ItemEdge, Ref: 1, From: 2, To: 3}})
	if _, err := decodeBody(buf[:len(buf)-1]); err == nil {
		t.Error("truncated body should fail")
	}
	bad := append([]byte{}, buf...)
	bad[1] = 0xFF // invalid item kind
	if _, err := decodeBody(bad); err == nil {
		t.Error("bad kind should fail")
	}
	if _, err := decodeBody(append(buf, 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestStateRoundTrip(t *testing.T) {
	s := &PartState{
		Parent: 3,
		Leaves: []int{1, 3},
		Local: []CoarseEdge{
			{U: 5, V: 9, Kind: ItemEdge, Ref: 17},
			{U: 9, V: 2, Kind: ItemPath, Ref: MakePathID(0, 1, 0)},
		},
		Remote: [][]RemoteEdge{{
			{Local: 5, Remote: 100, Edge: 3, ConvertLevel: 2},
		}},
		Stubs: []Stub{
			{Vertex: 9, ConvertLevel: 1, Count: 4},
		},
	}
	got, err := DecodeState(EncodeState(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestStateEmpty(t *testing.T) {
	s := &PartState{Parent: 0, Leaves: []int{0}}
	got, err := DecodeState(EncodeState(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Parent != 0 || len(got.Leaves) != 1 || len(got.Local) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestStateCorruption(t *testing.T) {
	buf := EncodeState(&PartState{Parent: 1, Leaves: []int{1},
		Local: []CoarseEdge{{U: 1, V: 2, Kind: ItemEdge, Ref: 5}}})
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeState(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestRemoteBatchRoundTrip(t *testing.T) {
	batch := []RemoteEdge{
		{Local: 1, Remote: 2, Edge: 3, ConvertLevel: 1},
		{Local: 4, Remote: 5, Edge: 6, ConvertLevel: 2},
	}
	got, err := DecodeRemoteBatch(AppendRemoteBatch(nil, batch))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	empty, err := DecodeRemoteBatch(AppendRemoteBatch(nil, nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v %v", empty, err)
	}
}

func TestQuickBodyRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 64)
		items := make([]Item, n)
		for i := range items {
			kind := ItemEdge
			if rng.Intn(2) == 1 {
				kind = ItemPath
			}
			items[i] = Item{
				Kind: kind,
				Ref:  rng.Int63() - rng.Int63(),
				From: rng.Int63n(1 << 30),
				To:   rng.Int63n(1 << 30),
			}
		}
		got, err := decodeBody(refAppendBody(nil, items))
		if err != nil {
			return false
		}
		if len(got) != len(items) {
			return false
		}
		for i := range items {
			if got[i] != items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStateRoundTrip(t *testing.T) {
	f := func(seed int64, nl, nr, ns uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &PartState{Parent: int(nl % 16), Leaves: []int{int(nl % 16)}}
		for i := 0; i < int(nl%20); i++ {
			s.Local = append(s.Local, CoarseEdge{
				U: rng.Int63n(1000), V: rng.Int63n(1000),
				Kind: ItemKind(rng.Intn(2)), Ref: rng.Int63n(1 << 40),
			})
		}
		var remote []RemoteEdge
		for i := 0; i < int(nr%20); i++ {
			remote = append(remote, RemoteEdge{
				Local: rng.Int63n(1000), Remote: rng.Int63n(1000),
				Edge: rng.Int63n(1 << 30), ConvertLevel: int32(rng.Intn(8)),
			})
		}
		s.Remote = oneRun(remote)
		for i := 0; i < int(ns%10); i++ {
			s.Stubs = append(s.Stubs, Stub{
				Vertex: rng.Int63n(1000), ConvertLevel: int32(rng.Intn(8)),
				Count: rng.Int63n(100) + 1,
			})
		}
		// AppendState sizes its one buffer growth from encodedStateLen.
		enc := EncodeState(s)
		got, err := DecodeState(enc)
		return len(enc) == encodedStateLen(s) && err == nil && reflect.DeepEqual(got, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStateRunsEncodeAsFlattened holds the codec to the remote list's
// logical sequence: a state whose remote edges lie in several runs, empty
// runs included and with run boundaries inside the delta streams (the
// deltas carry across them), encodes byte for byte as its one-run
// flattening, through EncodeState, through AppendState after a message
// tag, and in encodedStateLen; it decodes to the flattening.
func TestStateRunsEncodeAsFlattened(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		var edges []RemoteEdge
		for n := rng.Intn(60); len(edges) < n; {
			edges = append(edges, RemoteEdge{
				Local: rng.Int63n(1 << 20), Remote: rng.Int63n(1 << 20),
				Edge: rng.Int63n(1 << 30), ConvertLevel: int32(1 + rng.Intn(4)),
			})
		}
		multi := &PartState{Parent: 5, Leaves: []int{4, 5},
			Local:  []CoarseEdge{{U: 3, V: 8, Kind: ItemPath, Ref: 41}},
			Remote: randomRuns(rng, edges),
			Stubs:  []Stub{{Vertex: 2, ConvertLevel: 3, Count: 2}}}
		flat := &PartState{Parent: multi.Parent, Leaves: multi.Leaves, Local: multi.Local,
			Remote: oneRun(slices.Concat(multi.Remote...)), Stubs: multi.Stubs}
		want := EncodeState(flat)
		if got := EncodeState(multi); !bytes.Equal(got, want) {
			t.Fatalf("case %d (%d runs): EncodeState differs from the flattening's", i, len(multi.Remote))
		}
		if got := AppendState([]byte{msgState}, multi); got[0] != msgState || !bytes.Equal(got[1:], want) {
			t.Fatalf("case %d (%d runs): AppendState after a tag differs from the flattening's", i, len(multi.Remote))
		}
		if n := encodedStateLen(multi); n != len(want) {
			t.Fatalf("case %d (%d runs): encodedStateLen %d, flattening encodes to %d bytes", i, len(multi.Remote), n, len(want))
		}
		got, err := DecodeState(want)
		if err != nil || !reflect.DeepEqual(got, flat) {
			t.Fatalf("case %d: decoded %+v (%v), want %+v", i, got, err, flat)
		}
	}
}
