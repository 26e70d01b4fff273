package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Binary graph format:
//
//	magic   [8]byte  "EULGRPH1"
//	n       varint   vertex count
//	m       varint   edge count
//	edges   m × (varint u, varint v)   in EdgeID order
//
// The format is deliberately simple: it only needs to round-trip the graphs
// produced by the generators between the cmd tools, and the varint delta is
// not worth the complexity at the scales involved.

var magic = [8]byte{'E', 'U', 'L', 'G', 'R', 'P', 'H', '1'}

// ErrBadFormat is wrapped by every error that reports a malformed
// EULGRPH1 stream.
var ErrBadFormat = errors.New("graph: bad file format")

// DefaultBlockSize is the Scanner's block size: large enough to amortise
// syscalls, small enough to stay a rounding error under a tight
// GOMEMLIMIT.
const DefaultBlockSize = 256 << 10

// maxPlausibleCount bounds the declared vertex and edge counts so a
// corrupt header cannot drive allocation sizing; it is far above any
// count the upload caps or the generators admit.
const maxPlausibleCount = int64(1) << 40

// AppendHeader appends the EULGRPH1 header for the declared counts.
func AppendHeader(dst []byte, vertices, edges uint64) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.AppendUvarint(dst, vertices)
	dst = binary.AppendUvarint(dst, edges)
	return dst
}

// Scanner is the EULGRPH1 decoder.  It reads the stream in fixed-size
// blocks and hands each edge to a callback as it is decoded, so a scan
// holds one block whatever the graph's size.  Edges receive IDs in
// stream order, exactly as Builder.AddEdge assigns them.
//
// Every malformed input — bad magic, implausible counts, truncated
// stream, oversized varint record, out-of-range endpoint, self loop,
// trailing bytes — is an error wrapping ErrBadFormat, never a panic,
// which makes the Scanner safe to feed untrusted upload bodies.  Errors
// from the underlying reader are returned as they are.
type Scanner struct {
	r    io.Reader
	n, m int64
	buf  []byte // one block; buf[:have] holds unparsed bytes
	have int
	eof  bool
}

// NewScanner reads and validates the EULGRPH1 header on r and returns a
// Scanner that parses the body in blockSize-byte blocks (at least 64).
func NewScanner(r io.Reader, blockSize int) (*Scanner, error) {
	s := &Scanner{r: r, buf: make([]byte, max(blockSize, 64))}
	if err := s.fill(); err != nil {
		return nil, err
	}
	// A block holds the longest header (28 bytes), so a short read here
	// means the stream ended inside it.
	b := s.buf[:s.have]
	if len(b) < len(magic) || [8]byte(b) != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, b[:min(len(b), len(magic))])
	}
	pos := len(magic)
	n, k := binary.Uvarint(b[pos:])
	if k <= 0 {
		return nil, fmt.Errorf("%w: truncated or oversized vertex count", ErrBadFormat)
	}
	pos += k
	m, k := binary.Uvarint(b[pos:])
	if k <= 0 {
		return nil, fmt.Errorf("%w: truncated or oversized edge count", ErrBadFormat)
	}
	pos += k
	if n > uint64(maxPlausibleCount) || m > uint64(maxPlausibleCount) {
		return nil, fmt.Errorf("%w: implausible counts (%d vertices, %d edges)", ErrBadFormat, n, m)
	}
	s.n, s.m = int64(n), int64(m)
	s.have = copy(s.buf, b[pos:])
	return s, nil
}

// NumVertices returns the declared vertex count.
func (s *Scanner) NumVertices() int64 { return s.n }

// NumEdges returns the declared edge count.
func (s *Scanner) NumEdges() int64 { return s.m }

// ForEachEdge decodes the body and calls fn for every edge in EdgeID
// order, stopping at the first error and returning it.  It returns nil
// only when exactly the declared edges were decoded and the stream ends
// right after them.  A Scanner scans once.
func (s *Scanner) ForEachEdge(fn func(Edge) error) error {
	for id := int64(0); id < s.m; {
		if err := s.fill(); err != nil {
			return err
		}
		pos, start := 0, id
		for id < s.m {
			u, ulen := binary.Uvarint(s.buf[pos:s.have])
			if ulen == 0 {
				break // incomplete varint: carry it to the next block
			}
			if ulen < 0 {
				return fmt.Errorf("%w: edge %d: oversized endpoint record", ErrBadFormat, id)
			}
			v, vlen := binary.Uvarint(s.buf[pos+ulen : s.have])
			if vlen == 0 {
				break
			}
			if vlen < 0 {
				return fmt.Errorf("%w: edge %d: oversized endpoint record", ErrBadFormat, id)
			}
			if u >= uint64(s.n) || v >= uint64(s.n) {
				return fmt.Errorf("%w: edge %d: endpoint (%d,%d) out of range [0,%d)", ErrBadFormat, id, u, v, s.n)
			}
			if u == v {
				return fmt.Errorf("%w: edge %d: self loop at vertex %d", ErrBadFormat, id, u)
			}
			if err := fn(Edge{ID: id, U: int64(u), V: int64(v)}); err != nil {
				return err
			}
			id++
			pos += ulen + vlen
		}
		s.have = copy(s.buf, s.buf[pos:s.have])
		// A full block always holds a complete record (a pair is at most
		// 20 bytes, and longer varints fail above), so no progress means
		// the stream ended mid-record.
		if id == start {
			return fmt.Errorf("%w: truncated at edge %d of %d", ErrBadFormat, id, s.m)
		}
	}
	// All edges decoded: the stream must end here.
	if err := s.fill(); err != nil {
		return err
	}
	if s.have > 0 {
		return fmt.Errorf("%w: trailing data after edge %d", ErrBadFormat, s.m)
	}
	return nil
}

// fill tops the block up from the underlying reader until it is full or
// the stream ends.
func (s *Scanner) fill() error {
	for s.have < len(s.buf) && !s.eof {
		k, err := s.r.Read(s.buf[s.have:])
		s.have += k
		if err == io.EOF {
			s.eof = true
			break
		}
		if err != nil {
			return err
		}
		if k == 0 {
			return io.ErrNoProgress
		}
	}
	return nil
}

// Read decodes an EULGRPH1 stream into a Graph.  Malformed input is an
// error wrapping ErrBadFormat, never a panic.  The stream's length is
// unknown, so the edge list is pre-sized for at most 1 Mi edges.
func Read(r io.Reader) (*Graph, error) { return read(r, 1<<20) }

// ReadFile reads a graph from the named file.
func ReadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// A record is at least two bytes, which bounds the edges the file holds.
	return read(f, st.Size()/2)
}

// read decodes r, pre-sizing the edge list for the declared count but
// for no more than maxEdges, so a header that overstates its body
// cannot reserve memory the body never fills.
func read(r io.Reader, maxEdges int64) (*Graph, error) {
	sc, err := NewScanner(r, DefaultBlockSize)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(sc.NumVertices(), int(min(sc.NumEdges(), maxEdges)))
	if err := sc.ForEachEdge(func(e Edge) error { b.AddEdge(e.U, e.V); return nil }); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// StreamWriter emits an EULGRPH1 stream one edge at a time, so generators
// can write graphs far larger than RAM without ever materialising an
// edge slice.  The declared counts are written up front; Close fails if
// the appended edge count does not match the declaration.
type StreamWriter struct {
	c        io.Closer // the file NewStreamWriter created; nil under Write
	bw       *bufio.Writer
	vertices uint64
	edges    uint64
	written  uint64
	buf      [2 * binary.MaxVarintLen64]byte
}

// NewStreamWriter creates (or truncates) path and writes the EULGRPH1
// header for the declared counts.
func NewStreamWriter(path string, vertices, edges uint64) (*StreamWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sw, err := newStreamWriter(f, vertices, edges)
	if err != nil {
		f.Close()
		return nil, err
	}
	sw.c = f
	return sw, nil
}

// newStreamWriter writes the EULGRPH1 header for the declared counts to w
// and returns a StreamWriter appending edges to it.
func newStreamWriter(w io.Writer, vertices, edges uint64) (*StreamWriter, error) {
	sw := &StreamWriter{bw: bufio.NewWriterSize(w, 1<<20), vertices: vertices, edges: edges}
	if _, err := sw.bw.Write(AppendHeader(nil, vertices, edges)); err != nil {
		return nil, err
	}
	return sw, nil
}

// Append writes one undirected edge.  Edges receive IDs in append order,
// exactly as Builder.AddEdge would assign them.
func (sw *StreamWriter) Append(u, v VertexID) error {
	if u == v {
		return fmt.Errorf("graph: self loop at vertex %d", u)
	}
	if u < 0 || uint64(u) >= sw.vertices || v < 0 || uint64(v) >= sw.vertices {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, sw.vertices)
	}
	if sw.written >= sw.edges {
		return fmt.Errorf("graph: more edges than the declared %d", sw.edges)
	}
	n := binary.PutUvarint(sw.buf[:], uint64(u))
	n += binary.PutUvarint(sw.buf[n:], uint64(v))
	if _, err := sw.bw.Write(sw.buf[:n]); err != nil {
		return err
	}
	sw.written++
	return nil
}

// Close flushes the stream, closes the file NewStreamWriter created, and
// verifies the declared edge count.
func (sw *StreamWriter) Close() error {
	err := sw.bw.Flush()
	if sw.c != nil {
		if closeErr := sw.c.Close(); err == nil {
			err = closeErr
		}
	}
	if err != nil {
		return err
	}
	if sw.written != sw.edges {
		return fmt.Errorf("graph: wrote %d edges, declared %d", sw.written, sw.edges)
	}
	return nil
}

// Write serialises g to w in the binary graph format.
func Write(w io.Writer, g *Graph) error {
	sw, err := newStreamWriter(w, uint64(g.NumVertices()), uint64(g.NumEdges()))
	if err != nil {
		return err
	}
	if err := g.ForEachEdge(func(e Edge) error { return sw.Append(e.U, e.V) }); err != nil {
		return err
	}
	return sw.Close()
}

// WriteFile writes g to the named file, creating or truncating it.
func WriteFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
