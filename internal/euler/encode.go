package euler

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// Binary encodings for path bodies (spill store payloads) and partition
// states (BSP merge transfers).  Since wire v3 every top-level payload
// leads with the WireV3 marker and delta-encodes its ID streams: vertex
// and edge IDs within one record stream are near-sorted (Phase 1 walks
// and LDG assignment keep neighbours close), so the zigzag varints of
// consecutive differences are mostly one byte where the absolute values
// were two or more.  Varint framing keeps transfer byte counts
// proportional to the state's Long count, which is what the cost model
// charges for shuffle time.
//
// A payload without the marker is a legacy (v2) peer's frame; decoders
// reject it with a typed bsp.AbortProtocol error so a mixed-version
// cluster aborts the job cleanly instead of mis-parsing state.

// WireV3 is the leading marker byte of every euler wire-v3 payload
// (bands, visited deltas, bodies, states, remote batches, plan slices).
// No v2 payload starts with it: v2 bands start with a 'B'/'A' tag and
// every other v2 payload starts with a count/ID varint small enough in
// practice to differ.
const WireV3 byte = 0xE3

// errLegacy builds the typed protocol-abort error v3 decoders return for
// payloads missing the marker.  bsp.Retryable reports false for it: a
// version-mismatched peer fails deterministically, so a retry would only
// reproduce the abort.
func errLegacy(what string) error {
	return fmt.Errorf("euler: %s payload lacks the wire v3 marker (legacy v2 peer?): %w", what,
		&bsp.AbortError{Code: bsp.AbortProtocol, Reason: "v2 " + what + " payload rejected by v3 decoder"})
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("euler: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	// Deltas between neighbouring IDs mostly fit one byte.
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		d.off++
		return unzigzag(uint64(d.buf[d.off-1])), nil
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("euler: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) byteVal() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("euler: truncated byte at offset %d", d.off)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// marker consumes the leading WireV3 byte, returning the typed protocol
// error when it is absent.
func (d *decoder) marker(what string) error {
	if d.off >= len(d.buf) || d.buf[d.off] != WireV3 {
		return errLegacy(what)
	}
	d.off++
	return nil
}

func (d *decoder) done() error {
	if d.off != len(d.buf) {
		return fmt.Errorf("euler: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

// zigzag/unzigzag mirror the transform binary.AppendVarint applies, for
// streams that fold a flag bit into the delta.
func zigzag(x int64) uint64   { return uint64(x)<<1 ^ uint64(x>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the byte length of binary.AppendUvarint(nil, x).
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the byte length of binary.AppendVarint(nil, x).
func varintLen(x int64) int { return uvarintLen(zigzag(x)) }

// bodyItem is one item of a body held typed in process, in 16 B where
// an Item takes 32: ref is the Item's Ref with the sign bit set for
// ItemPath, and the item runs from the previous item's to (the record's
// Src for the first item) to to.  Edge and path refs are never negative,
// so the sign bit is free.
type bodyItem struct {
	ref int64
	to  graph.VertexID
}

// packRef folds an item kind into a ref's sign bit.
func packRef(kind ItemKind, ref int64) int64 { return ref | int64(kind&1)<<63 }

func (it bodyItem) kind() ItemKind { return ItemKind(uint64(it.ref) >> 63) }

// id returns the item's Ref without its kind bit.
func (it bodyItem) id() int64 { return it.ref & math.MaxInt64 }

// appendBody appends the serialisation of a typed body whose first item
// leaves from src to dst and returns the extended buffer, so hot paths
// can reuse one encode buffer.  Per item it writes the ref delta, the
// from-vs-previous-to delta (zero after the first item) and the
// to-vs-from hop: the format carries each item's from, which a typed
// body leaves implicit.  Kinds live in a leading bitmap rather than
// folded into a delta: a decoded ref spans the full int64 range, so a
// zigzagged ref delta can already need all 64 bits and has no room for a
// flag bit.
func appendBody(dst []byte, src graph.VertexID, items []bodyItem) []byte {
	dst = append(dst, WireV3)
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	var acc byte
	for i, it := range items {
		acc |= byte(it.kind()) << (i & 7)
		if i&7 == 7 {
			dst = append(dst, acc)
			acc = 0
		}
	}
	if len(items)&7 != 0 {
		dst = append(dst, acc)
	}
	var prevRef, prevTo int64
	from := src
	for _, it := range items {
		ref := it.id()
		dst = binary.AppendVarint(dst, ref-prevRef)
		dst = binary.AppendVarint(dst, from-prevTo)
		dst = binary.AppendVarint(dst, it.to-from)
		prevRef, prevTo, from = ref, it.to, it.to
	}
	return dst
}

// bodyError is an encoded body that has no typed form: its items do not
// chain from the record's source, or an item's ref is negative.
type bodyError struct {
	item uint64
	what string
}

func (e *bodyError) Error() string {
	return fmt.Sprintf("euler: body item %d %s", e.item, e.what)
}

// appendBodyItems decodes a body written by appendBody, whose first item
// should leave from src, and appends its typed items to dst.
func appendBodyItems(dst []bodyItem, buf []byte, src graph.VertexID) ([]bodyItem, error) {
	c, err := newBodyCursor(buf)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, int(c.n))
	prevTo := src
	for {
		it, ok, err := c.next()
		if !ok {
			return dst, err
		}
		if it.From != prevTo || it.Ref < 0 {
			return dst, unchained(c.i-1, it, prevTo)
		}
		dst = append(dst, bodyItem{ref: packRef(it.Kind, it.Ref), to: it.To})
		prevTo = it.To
	}
}

// bodySource returns the vertex the first item of a body written by
// appendBody leaves from, for decoding a body whose record has not
// arrived: zero when the body is empty or does not decode.
func bodySource(buf []byte) graph.VertexID {
	c, err := newBodyCursor(buf)
	if err != nil {
		return 0
	}
	it, _, _ := c.next()
	return it.From
}

// unchained is the bodyError of item i of a body, which either does not
// leave from prevTo, where the body is (its source for the first item),
// or has a negative ref.
func unchained(i uint64, it Item, prevTo graph.VertexID) error {
	switch {
	case it.From != prevTo && i == 0:
		return &bodyError{i, fmt.Sprintf("leaves from %d, not from the body's source %d", it.From, prevTo)}
	case it.From != prevTo:
		return &bodyError{i, fmt.Sprintf("leaves from %d, not from %d where item %d ends", it.From, prevTo, i-1)}
	}
	return &bodyError{i, fmt.Sprintf("has negative ref %d", it.Ref)}
}

// bodyCursor iterates a body written by appendBody, one item per next
// call.  It is the only body parser: appendBodyItems drains one.
type bodyCursor struct {
	d               decoder
	bitmap          []byte
	n, i            uint64
	prevRef, prevTo int64
}

// newBodyCursor checks the body header (marker, item count against the
// payload size, kind bitmap) and positions the cursor on the first item.
func newBodyCursor(buf []byte) (bodyCursor, error) {
	c := bodyCursor{d: decoder{buf: buf}}
	if err := c.d.marker("body"); err != nil {
		return c, err
	}
	n, err := c.d.uvarint()
	if err != nil {
		return c, err
	}
	// Each item takes at least 3 varint bytes plus a bitmap bit; bound
	// the count before anything is sized from it.
	if n > uint64(len(buf)-c.d.off)/3 {
		return c, fmt.Errorf("euler: body item count %d exceeds payload size", n)
	}
	nbitmap := (int(n) + 7) / 8
	if len(buf)-c.d.off < nbitmap {
		return c, fmt.Errorf("euler: truncated body kind bitmap at offset %d", c.d.off)
	}
	c.bitmap = buf[c.d.off : c.d.off+nbitmap]
	c.d.off += nbitmap
	c.n = n
	return c, nil
}

// next returns the following item.  After the last one it reports
// ok=false, with an error if the payload does not end there.
func (c *bodyCursor) next() (it Item, ok bool, err error) {
	if c.i == c.n {
		return Item{}, false, c.d.done()
	}
	dRef, err := c.d.varint()
	if err != nil {
		return Item{}, false, err
	}
	dFrom, err := c.d.varint()
	if err != nil {
		return Item{}, false, err
	}
	hop, err := c.d.varint()
	if err != nil {
		return Item{}, false, err
	}
	it.Kind = ItemKind(c.bitmap[c.i>>3] >> (c.i & 7) & 1)
	it.Ref = c.prevRef + dRef
	it.From = c.prevTo + dFrom
	it.To = it.From + hop
	c.prevRef, c.prevTo = it.Ref, it.To
	c.i++
	return it, true, nil
}

// EncodeState serialises a PartState for transfer to a merge parent, into
// a buffer of exactly the encoded size.
func EncodeState(s *PartState) []byte {
	return AppendState(nil, s)
}

// encodedStateLen returns len(EncodeState(s)) without encoding.
func encodedStateLen(s *PartState) int {
	n := 1 + uvarintLen(uint64(s.Parent)) + uvarintLen(uint64(len(s.Leaves)))
	prevLeaf := int64(0)
	for _, l := range s.Leaves {
		n += varintLen(int64(l) - prevLeaf)
		prevLeaf = int64(l)
	}
	n += uvarintLen(uint64(len(s.Local)))
	var prevU, prevRef int64
	for _, e := range s.Local {
		n += uvarintLen(zigzag(e.U-prevU)<<1|uint64(e.Kind&1)) + varintLen(e.V-e.U) + varintLen(e.Ref-prevRef)
		prevU, prevRef = e.U, e.Ref
	}
	n += uvarintLen(uint64(s.remoteLen()))
	var prevLocal, prevRemote, prevEdge int64
	for _, run := range s.Remote {
		for _, r := range run {
			n += varintLen(r.Local-prevLocal) + varintLen(r.Remote-prevRemote) +
				varintLen(r.Edge-prevEdge) + varintLen(int64(r.ConvertLevel))
			prevLocal, prevRemote, prevEdge = r.Local, r.Remote, r.Edge
		}
	}
	n += uvarintLen(uint64(len(s.Stubs)))
	var prevVert int64
	for _, st := range s.Stubs {
		n += varintLen(st.Vertex-prevVert) + varintLen(int64(st.ConvertLevel)) + varintLen(st.Count)
		prevVert = st.Vertex
	}
	return n
}

// AppendState appends the EncodeState serialisation of s to dst and
// returns the extended buffer, growing dst at most once (to the exact
// final size).  Writing the message tag first and the state after it into
// one reused buffer replaces the old append([]byte{tag}, enc...) double
// copy on the BSP send path.
func AppendState(dst []byte, s *PartState) []byte {
	dst = slices.Grow(dst, encodedStateLen(s))
	dst = append(dst, WireV3)
	dst = binary.AppendUvarint(dst, uint64(s.Parent))
	dst = binary.AppendUvarint(dst, uint64(len(s.Leaves)))
	prevLeaf := int64(0)
	for _, l := range s.Leaves {
		dst = binary.AppendVarint(dst, int64(l)-prevLeaf)
		prevLeaf = int64(l)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Local)))
	var prevU, prevRef int64
	for _, e := range s.Local {
		dst = binary.AppendUvarint(dst, zigzag(e.U-prevU)<<1|uint64(e.Kind&1))
		dst = binary.AppendVarint(dst, e.V-e.U)
		dst = binary.AppendVarint(dst, e.Ref-prevRef)
		prevU, prevRef = e.U, e.Ref
	}
	dst = binary.AppendUvarint(dst, uint64(s.remoteLen()))
	dst = appendRemoteEdges(dst, s.Remote...)
	dst = binary.AppendUvarint(dst, uint64(len(s.Stubs)))
	var prevVert int64
	for _, st := range s.Stubs {
		dst = binary.AppendVarint(dst, st.Vertex-prevVert)
		dst = binary.AppendVarint(dst, int64(st.ConvertLevel))
		dst = binary.AppendVarint(dst, st.Count)
		prevVert = st.Vertex
	}
	return dst
}

// DecodeState parses a PartState written by EncodeState.
func DecodeState(buf []byte) (*PartState, error) {
	d := &decoder{buf: buf}
	if err := d.marker("state"); err != nil {
		return nil, err
	}
	s := &PartState{}
	parent, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	s.Parent = int(parent)
	nl, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	prevLeaf := int64(0)
	for i := uint64(0); i < nl; i++ {
		dl, err := d.varint()
		if err != nil {
			return nil, err
		}
		prevLeaf += dl
		s.Leaves = append(s.Leaves, int(prevLeaf))
	}
	ne, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ne > uint64(len(d.buf)-d.off)/3 {
		return nil, fmt.Errorf("euler: local edge count %d exceeds payload size", ne)
	}
	if ne > 0 {
		s.Local = make([]CoarseEdge, 0, ne)
	}
	var prevU, prevRef int64
	for i := uint64(0); i < ne; i++ {
		packed, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		kind := ItemKind(packed & 1)
		u := prevU + unzigzag(packed>>1)
		dv, err := d.varint()
		if err != nil {
			return nil, err
		}
		dref, err := d.varint()
		if err != nil {
			return nil, err
		}
		ref := prevRef + dref
		s.Local = append(s.Local, CoarseEdge{U: u, V: u + dv, Kind: kind, Ref: ref})
		prevU, prevRef = u, ref
	}
	nr, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nr > uint64(len(d.buf)-d.off)/4 {
		return nil, fmt.Errorf("euler: remote edge count %d exceeds payload size", nr)
	}
	remote, err := decodeRemoteEdges(d, nr)
	if err != nil {
		return nil, err
	}
	s.Remote = oneRun(remote)
	ns, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	var prevVert int64
	for i := uint64(0); i < ns; i++ {
		dv, err := d.varint()
		if err != nil {
			return nil, err
		}
		lvl, err := d.varint()
		if err != nil {
			return nil, err
		}
		count, err := d.varint()
		if err != nil {
			return nil, err
		}
		prevVert += dv
		s.Stubs = append(s.Stubs, Stub{Vertex: prevVert, ConvertLevel: int32(lvl), Count: count})
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// appendRemoteEdges delta-encodes one remote-edge stream, the runs
// concatenated (no count; the caller frames it).  The deltas carry across
// run boundaries, so the bytes do not depend on how the stream is split.
func appendRemoteEdges(dst []byte, runs ...[]RemoteEdge) []byte {
	var prevLocal, prevRemote, prevEdge int64
	for _, run := range runs {
		for _, r := range run {
			dst = binary.AppendVarint(dst, r.Local-prevLocal)
			dst = binary.AppendVarint(dst, r.Remote-prevRemote)
			dst = binary.AppendVarint(dst, r.Edge-prevEdge)
			dst = binary.AppendVarint(dst, int64(r.ConvertLevel))
			prevLocal, prevRemote, prevEdge = r.Local, r.Remote, r.Edge
		}
	}
	return dst
}

// decodeRemoteEdges parses n edges written by appendRemoteEdges.
func decodeRemoteEdges(d *decoder, n uint64) ([]RemoteEdge, error) {
	if n == 0 {
		return nil, nil
	}
	edges := make([]RemoteEdge, 0, n)
	var prevLocal, prevRemote, prevEdge int64
	for i := uint64(0); i < n; i++ {
		dl, err := d.varint()
		if err != nil {
			return nil, err
		}
		dr, err := d.varint()
		if err != nil {
			return nil, err
		}
		de, err := d.varint()
		if err != nil {
			return nil, err
		}
		lvl, err := d.varint()
		if err != nil {
			return nil, err
		}
		prevLocal += dl
		prevRemote += dr
		prevEdge += de
		edges = append(edges, RemoteEdge{
			Local: prevLocal, Remote: prevRemote, Edge: prevEdge, ConvertLevel: int32(lvl),
		})
	}
	return edges, nil
}

// AppendRemoteBatch appends the serialisation of a parked remote-edge
// delivery (deferred transfer mode) to dst and returns the extended
// buffer.
func AppendRemoteBatch(dst []byte, edges []RemoteEdge) []byte {
	dst = append(dst, WireV3)
	dst = binary.AppendUvarint(dst, uint64(len(edges)))
	return appendRemoteEdges(dst, edges)
}

// DecodeRemoteBatch parses a batch written by AppendRemoteBatch.
func DecodeRemoteBatch(buf []byte) ([]RemoteEdge, error) {
	edges, off, err := decodeRemoteBatchAt(buf, 0)
	if err != nil {
		return nil, err
	}
	if off != len(buf) {
		return nil, fmt.Errorf("euler: %d trailing bytes", len(buf)-off)
	}
	return edges, nil
}

// decodeRemoteBatchAt decodes one AppendRemoteBatch payload embedded at
// off inside buf, returning the batch and the offset after it (plan
// slices embed batches mid-stream).
func decodeRemoteBatchAt(buf []byte, off int) ([]RemoteEdge, int, error) {
	d := &decoder{buf: buf, off: off}
	if err := d.marker("remote batch"); err != nil {
		return nil, 0, err
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	// Each edge takes at least 4 varint bytes; bound the count before
	// allocating from it.
	if n > uint64(len(buf)-d.off)/4 {
		return nil, 0, fmt.Errorf("euler: remote batch count %d exceeds payload size", n)
	}
	edges, err := decodeRemoteEdges(d, n)
	if err != nil {
		return nil, 0, err
	}
	return edges, d.off, nil
}
