package euler

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// Cluster wire formats: what crosses the coordinator barrier beyond BSP
// messages.  Each superstep a worker node ships an "absorb band" — the
// path bodies its Phase 1 runs spilled plus the pathMap/seed/visited
// records Registry.Absorb would have received in shared memory — and the
// coordinator broadcasts back the union of every node's newly visited
// vertices, so each node's local visited bitset converges to the global
// one before the next superstep reads it.  At job end each node ships one
// worker-result payload with its reports, liveLongs rows, and BSP metrics.

// Band record tags.  A non-empty v3 band leads with the WireV3 marker;
// v2 bands started straight at a tag byte, which is how a legacy peer's
// band is recognised and rejected.
const (
	bandBody   byte = 'B' // spilled path body: id, payload
	bandAbsorb byte = 'A' // one worker's Phase 1 absorption
)

// WorkerProgram hosts a contiguous worker range of a distributed run on
// one node.  It implements bsp.Program over the plan slice and
// bsp.BarrierHooks to ship absorb bands to the coordinator and apply the
// broadcast visited deltas, replacing the shared-memory Registry the
// single-process driver wires in.
type WorkerProgram struct {
	prog    *partProgram
	visited []atomic.Uint32

	mu   sync.Mutex
	band []byte
}

// NewWorkerProgram builds the node-side program for a decoded plan slice,
// run by an engine with the given slot count (bsp.Engine.Slots).
func NewWorkerProgram(plan *Plan, slots int) *WorkerProgram {
	wp := &WorkerProgram{visited: make([]atomic.Uint32, (plan.NumVertices+31)/32)}
	wp.prog = newPartProgram(plan, progDeps{
		bodies:  bodySink{encoded: wp.putBody},
		visited: wp.isVisited,
		absorb:  wp.absorb,
	}, slots)
	return wp
}

// Compute implements bsp.Program.
func (wp *WorkerProgram) Compute(ctx *bsp.Context) error { return wp.prog.Compute(ctx) }

// isVisited consults the node-local replica of the global visited bitset:
// the workers' own marks land immediately (as in shared memory), other
// nodes' marks arrive with each barrier's broadcast delta.  Within a
// superstep worker vertex sets are disjoint, so the replica answers every
// query a shared Registry would.
func (wp *WorkerProgram) isVisited(v graph.VertexID) bool {
	return wp.visited[v>>5].Load()&(1<<(uint(v)&31)) != 0
}

// bandStart returns the band buffer ready for appending one more record,
// stamping the v3 marker on the first record of a superstep.  Callers
// hold wp.mu.
func (wp *WorkerProgram) bandStart() []byte {
	if len(wp.band) == 0 {
		return append(wp.band, WireV3)
	}
	return wp.band
}

// absorb implements the program's registry seam: mark the visited replica
// and append the absorption to the current superstep's band.  Record IDs,
// endpoints, seeds, and visited vertices are near-sorted within one
// absorption, so each stream is delta-encoded against its previous value.
func (wp *WorkerProgram) absorb(w int, res *Phase1Result, isRoot bool) error {
	for _, v := range res.Visited {
		wp.visited[v>>5].Or(1 << (uint(v) & 31))
	}
	wp.mu.Lock()
	defer wp.mu.Unlock()
	dst := append(wp.bandStart(), bandAbsorb)
	dst = binary.AppendUvarint(dst, uint64(w))
	var flags byte
	if isRoot {
		flags = 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(res.Recs)))
	var prevID, prevSrc int64
	for _, rec := range res.Recs {
		dst = binary.AppendVarint(dst, rec.ID-prevID)
		dst = append(dst, byte(rec.Type))
		dst = binary.AppendVarint(dst, rec.Src-prevSrc)
		dst = binary.AppendVarint(dst, rec.Dst-rec.Src)
		dst = binary.AppendVarint(dst, int64(rec.Level))
		dst = binary.AppendVarint(dst, int64(rec.Part))
		dst = binary.AppendVarint(dst, rec.Items)
		prevID, prevSrc = rec.ID, rec.Src
	}
	dst = binary.AppendUvarint(dst, uint64(len(res.Seeds)))
	var prevSeed int64
	for _, s := range res.Seeds {
		dst = binary.AppendVarint(dst, s-prevSeed)
		prevSeed = s
	}
	wp.band = appendVertexSet(dst, res.Visited)
	return nil
}

// Vertex-set stream modes.  Visited sets are order-free (receivers only
// OR bits), so the encoder picks whichever representation is smaller:
// the delta stream wins for sparse scatters, the span bitmap for the
// dense sets a clique-heavy superstep produces (one bit per vertex in
// [min, max] instead of one varint per vertex).
const (
	vsetDeltas byte = 0 // count zigzag deltas, original order
	vsetBitmap byte = 1 // varint min, uvarint nbytes, LSB-first bitmap
)

// appendVertexSet encodes vs as count, mode, then the mode's payload.
func appendVertexSet(dst []byte, vs []graph.VertexID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	if len(vs) == 0 {
		return dst
	}
	lo, hi := vs[0], vs[0]
	deltaLen, prev := 0, int64(0)
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
		deltaLen += varintLen(v - prev)
		prev = v
	}
	nbytes := uint64(hi-lo)/8 + 1
	bitmapLen := 1 + varintLen(lo) + uvarintLen(nbytes) + int(nbytes)
	if 1+deltaLen <= bitmapLen {
		dst = append(dst, vsetDeltas)
		prev = 0
		for _, v := range vs {
			dst = binary.AppendVarint(dst, v-prev)
			prev = v
		}
		return dst
	}
	dst = append(dst, vsetBitmap)
	dst = binary.AppendVarint(dst, lo)
	dst = binary.AppendUvarint(dst, nbytes)
	bits := make([]byte, nbytes)
	for _, v := range vs {
		bit := uint64(v - lo)
		bits[bit>>3] |= 1 << (bit & 7)
	}
	return append(dst, bits...)
}

// decodeVertexSet parses a set written by appendVertexSet.  Bitmap-mode
// sets come back in ascending order rather than the encoder's order.
func decodeVertexSet(d *decoder) ([]graph.VertexID, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(len(d.buf)-d.off)*8 {
		return nil, fmt.Errorf("euler: vertex set count %d exceeds payload size", n)
	}
	mode, err := d.byteVal()
	if err != nil {
		return nil, err
	}
	vs := make([]graph.VertexID, 0, n)
	switch mode {
	case vsetDeltas:
		var prev int64
		for i := uint64(0); i < n; i++ {
			dv, err := d.varint()
			if err != nil {
				return nil, err
			}
			prev += dv
			vs = append(vs, prev)
		}
	case vsetBitmap:
		lo, err := d.varint()
		if err != nil {
			return nil, err
		}
		nbytes, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nbytes > uint64(len(d.buf)-d.off) {
			return nil, fmt.Errorf("euler: vertex set bitmap of %d bytes exceeds payload size", nbytes)
		}
		for i, b := range d.buf[d.off : d.off+int(nbytes)] {
			for ; b != 0; b &= b - 1 {
				vs = append(vs, lo+int64(i)*8+int64(bits.TrailingZeros8(b)))
			}
		}
		d.off += int(nbytes)
		if uint64(len(vs)) != n {
			return nil, fmt.Errorf("euler: vertex set bitmap has %d bits, header says %d", len(vs), n)
		}
	default:
		return nil, fmt.Errorf("euler: unknown vertex set mode %d", mode)
	}
	return vs, nil
}

// EmitSideband implements bsp.BarrierHooks: hand the superstep's band to
// the transport.  The buffer is reset for reuse — the transport finishes
// writing it before Exchange returns, and the next superstep's Compute
// calls only start after that.
func (wp *WorkerProgram) EmitSideband(step int) ([]byte, error) {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	band := wp.band
	wp.band = wp.band[:0]
	return band, nil
}

// ApplySideband implements bsp.BarrierHooks: fold the coordinator's
// visited delta into the local replica.
func (wp *WorkerProgram) ApplySideband(step int, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	d := &decoder{buf: data}
	if err := d.marker("visited delta"); err != nil {
		return err
	}
	vs, err := decodeVertexSet(d)
	if err != nil {
		return err
	}
	for _, v := range vs {
		if v < 0 || v>>5 >= int64(len(wp.visited)) {
			return fmt.Errorf("euler: visited delta names vertex %d outside the graph", v)
		}
		wp.visited[v>>5].Or(1 << (uint(v) & 31))
	}
	return d.done()
}

// Result encodes the node's final job payload: its worker range, the
// per-partition reports, the liveLongs memory rows, and the instance's
// BSP metrics.
func (wp *WorkerProgram) Result(metrics bsp.Metrics) []byte {
	plan := wp.prog.plan
	dst := binary.AppendUvarint(nil, uint64(plan.Lo))
	dst = binary.AppendUvarint(dst, uint64(plan.Hi))
	parts := wp.prog.parts()
	dst = binary.AppendUvarint(dst, uint64(len(parts)))
	for _, p := range parts {
		dst = appendPartReport(dst, p)
	}
	dst = binary.AppendUvarint(dst, uint64(plan.Height+1))
	for _, row := range wp.prog.liveLongs {
		for _, v := range row {
			dst = binary.AppendVarint(dst, v)
		}
	}
	dst = appendMetrics(dst, metrics)
	return dst
}

// putBody is a worker node's body seam: it appends the body to the
// superstep's band, and the coordinator's registry keeps it.
func (wp *WorkerProgram) putBody(id PathID, data []byte) error {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	dst := append(wp.bandStart(), bandBody)
	dst = binary.AppendVarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	wp.band = append(dst, data...)
	return nil
}

// AbsorbSink is the coordinator side of the band protocol: it applies
// every node's superstep band to the real Registry, bodies included, and
// accumulates the visited union for the next broadcast.  Calls arrive on
// the hub's job goroutine in deterministic order, so no locking is needed.
type AbsorbSink struct {
	reg   *Registry
	delta []graph.VertexID
}

// NewAbsorbSink returns a sink absorbing into reg.
func NewAbsorbSink(reg *Registry) *AbsorbSink {
	return &AbsorbSink{reg: reg}
}

// Apply consumes one node's band for one superstep (the bsp JobHooks
// OnSideband shape).  data aliases a frame buffer and is not retained.
func (s *AbsorbSink) Apply(step, lo, hi int, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	d := &decoder{buf: data}
	if err := d.marker("absorb band"); err != nil {
		return err
	}
	for d.off < len(d.buf) {
		tag := d.buf[d.off]
		d.off++
		switch tag {
		case bandBody:
			id, err := d.varint()
			if err != nil {
				return err
			}
			n, err := d.uvarint()
			if err != nil {
				return err
			}
			if uint64(len(d.buf)-d.off) < n {
				return fmt.Errorf("euler: truncated body %d in band", id)
			}
			if err := s.reg.putBody(id, d.buf[d.off:d.off+int(n)]); err != nil {
				return err
			}
			d.off += int(n)
		case bandAbsorb:
			w, err := d.uvarint()
			if err != nil {
				return err
			}
			if int(w) < lo || int(w) >= hi {
				return fmt.Errorf("euler: band absorb for worker %d outside node range [%d, %d)", w, lo, hi)
			}
			flags := byte(0)
			if d.off < len(d.buf) {
				flags = d.buf[d.off]
				d.off++
			}
			res := &Phase1Result{}
			nRecs, err := d.uvarint()
			if err != nil {
				return err
			}
			var prevID, prevSrc int64
			for i := uint64(0); i < nRecs; i++ {
				var rec PathRec
				dID, err := d.varint()
				if err != nil {
					return err
				}
				rec.ID = prevID + dID
				if d.off >= len(d.buf) {
					return fmt.Errorf("euler: truncated pathMap record in band")
				}
				rec.Type = PathType(d.buf[d.off])
				d.off++
				dSrc, err := d.varint()
				if err != nil {
					return err
				}
				rec.Src = prevSrc + dSrc
				span, err := d.varint()
				if err != nil {
					return err
				}
				rec.Dst = rec.Src + span
				lvl, err := d.varint()
				if err != nil {
					return err
				}
				rec.Level = int(lvl)
				part, err := d.varint()
				if err != nil {
					return err
				}
				rec.Part = int(part)
				if rec.Items, err = d.varint(); err != nil {
					return err
				}
				prevID, prevSrc = rec.ID, rec.Src
				res.Recs = append(res.Recs, rec)
			}
			nSeeds, err := d.uvarint()
			if err != nil {
				return err
			}
			var prevSeed int64
			for i := uint64(0); i < nSeeds; i++ {
				ds, err := d.varint()
				if err != nil {
					return err
				}
				prevSeed += ds
				res.Seeds = append(res.Seeds, prevSeed)
			}
			if res.Visited, err = decodeVertexSet(d); err != nil {
				return err
			}
			// Registry.Absorb indexes its visited bitset with these, so a
			// corrupt band must be rejected before it can reach that array.
			for _, v := range res.Visited {
				if v < 0 || v >= s.reg.numVerts {
					return fmt.Errorf("euler: band visited vertex %d outside graph of %d vertices", v, s.reg.numVerts)
				}
			}
			if err := s.reg.Absorb(int(w), res, flags&1 != 0); err != nil {
				return err
			}
			s.delta = append(s.delta, res.Visited...)
		default:
			return fmt.Errorf("euler: unknown band record tag %q", tag)
		}
	}
	return nil
}

// TakeDelta encodes and clears the visited union accumulated since the
// last call (the bsp JobHooks Broadcast shape).  The union of a
// superstep's visits is usually dense, so the adaptive set codec
// normally ships it as a span bitmap.
func (s *AbsorbSink) TakeDelta(step int) ([]byte, error) {
	if len(s.delta) == 0 {
		return nil, nil
	}
	dst := appendVertexSet([]byte{WireV3}, s.delta)
	s.delta = s.delta[:0]
	return dst, nil
}

// WorkerResult is a decoded node job payload.
type WorkerResult struct {
	Lo, Hi    int
	Parts     []PartReport
	LiveLongs [][]int64 // rows for workers [Lo, Hi), each Height+1 long
	Metrics   bsp.Metrics
}

// DecodeWorkerResult parses a payload written by WorkerProgram.Result.
func DecodeWorkerResult(buf []byte) (*WorkerResult, error) {
	d := &decoder{buf: buf}
	lo, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	hi, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	out := &WorkerResult{Lo: int(lo), Hi: int(hi)}
	if out.Hi <= out.Lo {
		return nil, fmt.Errorf("euler: worker result range [%d, %d) invalid", out.Lo, out.Hi)
	}
	nParts, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nParts; i++ {
		p, err := decodePartReport(d)
		if err != nil {
			return nil, err
		}
		out.Parts = append(out.Parts, p)
	}
	cols, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Each liveLongs cell is at least one varint byte; bound both
	// dimensions by the remaining payload before allocating.
	remaining := uint64(len(d.buf) - d.off)
	if rows := uint64(out.Hi - out.Lo); cols > remaining || rows > remaining {
		return nil, fmt.Errorf("euler: liveLongs %d×%d exceeds payload size %d", rows, cols, remaining)
	}
	out.LiveLongs = make([][]int64, out.Hi-out.Lo)
	for i := range out.LiveLongs {
		row := make([]int64, cols)
		for j := range row {
			if row[j], err = d.varint(); err != nil {
				return nil, err
			}
		}
		out.LiveLongs[i] = row
	}
	if out.Metrics, err = decodeMetrics(d); err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return out, nil
}

func appendPartReport(dst []byte, p PartReport) []byte {
	dst = binary.AppendVarint(dst, int64(p.Level))
	dst = binary.AppendVarint(dst, int64(p.Part))
	for _, t := range []time.Duration{p.CopySrc, p.CopySink, p.CreateObj, p.Phase1} {
		dst = binary.AppendVarint(dst, int64(t))
	}
	for _, v := range []int64{
		p.Stats.Boundary, p.Stats.Internal, p.Stats.Local, p.Stats.OB, p.Stats.EB,
		p.Stats.Paths, p.Stats.Cycles, p.Stats.Trivial, p.Stats.Items,
		p.LongsAtStart, p.RemoteEdges, p.StubGroups,
	} {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

func decodePartReport(d *decoder) (PartReport, error) {
	var p PartReport
	vals := make([]int64, 18)
	for i := range vals {
		v, err := d.varint()
		if err != nil {
			return p, err
		}
		vals[i] = v
	}
	p.Level, p.Part = int(vals[0]), int(vals[1])
	p.CopySrc, p.CopySink = time.Duration(vals[2]), time.Duration(vals[3])
	p.CreateObj, p.Phase1 = time.Duration(vals[4]), time.Duration(vals[5])
	p.Stats = Phase1Stats{
		Boundary: vals[6], Internal: vals[7], Local: vals[8], OB: vals[9], EB: vals[10],
		Paths: vals[11], Cycles: vals[12], Trivial: vals[13], Items: vals[14],
	}
	p.LongsAtStart, p.RemoteEdges, p.StubGroups = vals[15], vals[16], vals[17]
	return p, nil
}

func appendMetrics(dst []byte, m bsp.Metrics) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Stages)))
	for _, s := range m.Stages {
		dst = binary.AppendVarint(dst, int64(s.Superstep))
		dst = binary.AppendVarint(dst, int64(s.ActiveWorkers))
		dst = binary.AppendVarint(dst, s.Messages)
		dst = binary.AppendVarint(dst, s.Bytes)
		dst = binary.AppendVarint(dst, int64(s.MaxCompute))
		dst = binary.AppendVarint(dst, int64(s.SumCompute))
		dst = binary.AppendVarint(dst, int64(s.Modeled))
		dst = binary.AppendVarint(dst, int64(s.Wire))
		dst = binary.AppendVarint(dst, s.WireBytes)
	}
	return dst
}

func decodeMetrics(d *decoder) (bsp.Metrics, error) {
	var m bsp.Metrics
	n, err := d.uvarint()
	if err != nil {
		return m, err
	}
	for i := uint64(0); i < n; i++ {
		vals := make([]int64, 9)
		for j := range vals {
			v, err := d.varint()
			if err != nil {
				return m, err
			}
			vals[j] = v
		}
		s := bsp.StageStat{
			Superstep:     int(vals[0]),
			ActiveWorkers: int(vals[1]),
			Messages:      vals[2],
			Bytes:         vals[3],
			MaxCompute:    time.Duration(vals[4]),
			SumCompute:    time.Duration(vals[5]),
			Modeled:       time.Duration(vals[6]),
			Wire:          time.Duration(vals[7]),
			WireBytes:     vals[8],
		}
		m.Stages = append(m.Stages, s)
		m.Supersteps++
		m.Messages += s.Messages
		m.Bytes += s.Bytes
		m.SumCompute += s.SumCompute
		m.CriticalPath += s.MaxCompute
		m.ModeledTotal += s.Modeled
		m.WireTotal += s.Wire
		m.WireBytes += s.WireBytes
	}
	return m, nil
}
