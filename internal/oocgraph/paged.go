// Package oocgraph is the out-of-core graph subsystem: a paged CSR
// (PagedGraph) whose adjacency lives on disk behind a bounded LRU of
// partition pages, built from an EULGRPH1 file by an external scatter
// that reads the file through graph.Scanner.  It lets the service
// partition and tour graphs far larger than the process heap while
// producing byte-identical circuits to the in-memory path.
package oocgraph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

// DefaultPageHalves is the adjacency-page granularity: 256 halves =
// 4 KiB per page, one OS page and one pread per fault.  The pager's Adj
// reader is the partitioner's BFS, whose frontier touches scattered
// vertices, so small pages make the budget hold many distant adjacency
// lists instead of a few large runs.
const DefaultPageHalves = 256

// defaultMemBytes is the resident page budget when BuildOptions.MemBytes
// is zero: 2 MiB, 512 default-size pages.
const defaultMemBytes = 2 << 20

// halfBytes is the on-disk size of one adjacency half (to, edge as
// little-endian int64s).
const halfBytes = 16

// scatterSpanHalves is the CSR scatter's bucket span: the halves one
// bucket file covers and one in-memory fill buffer (4 MiB) places.  It
// is independent of the page size, since a span per small page would
// open hundreds of bucket files, each with its own write buffer.
const scatterSpanHalves int64 = 256 << 10

// maxScatterBuckets caps the temp files the CSR scatter keeps open at
// once; beyond it the bucket span (and its in-memory fill buffer)
// grows instead.
const maxScatterBuckets = 512

// BuildOptions configures BuildPaged.
type BuildOptions struct {
	// Dir holds the halves blob and the scatter's temp bucket files.
	Dir string
	// MemBytes is the resident page budget, honoured down to two pages
	// (8 KiB at the default page size): below that it is raised to two
	// so a single Adj call spanning a page boundary cannot thrash.  Zero
	// means 2 MiB.
	MemBytes int64
	// PageHalves is the halves-per-page granularity (0 =
	// DefaultPageHalves); a page holds PageHalves*16 bytes.
	PageHalves int64
	// BlockSize is the edge-file scan block size (0 =
	// graph.DefaultBlockSize).
	BlockSize int
}

// PagedGraph is a CSR whose adjacency halves live in an on-disk blob,
// paged into memory through a byte-budgeted LRU.  It satisfies
// graph.Source: Degree and the offsets are in-heap (O(V)), Adj reads
// through the page cache, and ForEachEdge re-scans the original
// EULGRPH1 file in blocks.
//
// The halves blob is laid out exactly like graph.Builder.Build lays
// out its in-memory halves slice (both halves of each edge scattered
// in EdgeID order), so every Adj list is byte-identical to the in-heap
// CSR's — the partitioner and plan builder see the same graph either
// way, which is what keeps out-of-core circuits byte-identical.
//
// A PagedGraph is not safe for concurrent use: Adj may return a slice
// aliasing a page buffer or the spanning scratch, valid only until the
// next Adj call.
type PagedGraph struct {
	n, m     int64
	offs     []int64
	edgePath string
	blockSz  int

	blob       *os.File
	blobPath   string
	pageHalves int64
	maxPages   int

	pages   map[int64]*csrPage
	lruHead *csrPage // most recent
	lruTail *csrPage // least recent
	scratch []graph.Half
	// free recycles evicted pages' buffers and raw the decode scratch:
	// at steady state a fault costs two reads and zero allocations, so
	// a page-thrashing solve does not outrun the GC.
	free []*csrPage
	raw  []byte
}

type csrPage struct {
	idx        int64
	halves     []graph.Half
	prev, next *csrPage
}

var _ graph.Source = (*PagedGraph)(nil)

// BuildPaged builds a paged CSR from an EULGRPH1 file via an external
// scatter: pass 1 streams the file to count degrees (O(V) memory),
// pass 2 streams it again appending half records to position-range
// bucket files, then each bucket is loaded, placed, and appended to
// the halves blob in order.  Peak memory is O(V) for the offsets plus
// one bucket buffer.
func BuildPaged(edgePath string, opt BuildOptions) (*PagedGraph, error) {
	if opt.PageHalves <= 0 {
		opt.PageHalves = DefaultPageHalves
	}
	if opt.BlockSize <= 0 {
		opt.BlockSize = graph.DefaultBlockSize
	}
	if opt.MemBytes <= 0 {
		opt.MemBytes = defaultMemBytes
	}
	maxPages := int(opt.MemBytes / (opt.PageHalves * halfBytes))
	if maxPages < 2 {
		maxPages = 2
	}

	offs, m, err := degreeOffsets(edgePath, opt.BlockSize)
	if err != nil {
		return nil, err
	}
	pg := &PagedGraph{
		n: int64(len(offs) - 1), m: m, offs: offs,
		edgePath:   edgePath,
		blockSz:    opt.BlockSize,
		pageHalves: opt.PageHalves,
		maxPages:   maxPages,
		pages:      make(map[int64]*csrPage),
	}
	if err := pg.scatter(opt); err != nil {
		return nil, err
	}
	return pg, nil
}

// degreeOffsets runs pass 1: it scans the file once to count degrees
// and returns the CSR offsets (O(V) memory) and the edge count.
func degreeOffsets(edgePath string, blockSize int) ([]int64, int64, error) {
	f, err := os.Open(edgePath)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc, err := graph.NewScanner(f, blockSize)
	if err != nil {
		return nil, 0, err
	}
	n := sc.NumVertices()
	if n > int64(1)<<31 {
		return nil, 0, fmt.Errorf("oocgraph: %d vertices exceed the paged CSR range", n)
	}
	offs := make([]int64, n+1)
	err = sc.ForEachEdge(func(e graph.Edge) error {
		offs[e.U+1]++
		offs[e.V+1]++
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	for v := int64(1); v <= n; v++ {
		offs[v] += offs[v-1]
	}
	return offs, sc.NumEdges(), nil
}

// scatter runs pass 2: half records into bucket files, buckets into
// the blob.
func (pg *PagedGraph) scatter(opt BuildOptions) error {
	totalHalves := 2 * pg.m
	span := scatterSpanHalves
	if totalHalves/span+1 > maxScatterBuckets {
		span = totalHalves/maxScatterBuckets + 1
	}
	numBuckets := int((totalHalves + span - 1) / span)
	if numBuckets < 1 {
		numBuckets = 1
	}

	blob, err := os.CreateTemp(opt.Dir, "csr-*.blob")
	if err != nil {
		return err
	}
	pg.blob, pg.blobPath = blob, blob.Name()

	buckets := make([]*os.File, numBuckets)
	writers := make([]*bufio.Writer, numBuckets)
	cleanup := func() {
		for _, f := range buckets {
			if f != nil {
				name := f.Name()
				f.Close()
				os.Remove(name)
			}
		}
	}
	defer cleanup()
	for i := range buckets {
		f, err := os.CreateTemp(opt.Dir, "csrbkt-*.tmp")
		if err != nil {
			return err
		}
		buckets[i] = f
		writers[i] = bufio.NewWriterSize(f, 64<<10)
	}

	// next[v] is the blob position the next half of v lands at; the
	// scan visits edges in EdgeID order, so each vertex's halves end up
	// in EdgeID order — the same order Builder.Build produces.
	next := make([]int64, pg.n)
	copy(next, pg.offs[:pg.n])
	var rec [3 * 8]byte
	put := func(pos, to, edge int64) error {
		binary.LittleEndian.PutUint64(rec[0:], uint64(pos))
		binary.LittleEndian.PutUint64(rec[8:], uint64(to))
		binary.LittleEndian.PutUint64(rec[16:], uint64(edge))
		_, err := writers[pos/span].Write(rec[:])
		return err
	}
	err = pg.ForEachEdge(func(e graph.Edge) error {
		if err := put(next[e.U], e.V, e.ID); err != nil {
			return err
		}
		next[e.U]++
		if err := put(next[e.V], e.U, e.ID); err != nil {
			return err
		}
		next[e.V]++
		return nil
	})
	if err != nil {
		return err
	}
	next = nil

	// Place each bucket and append it to the blob in position order.
	bw := bufio.NewWriterSize(pg.blob, 1<<20)
	fill := make([]graph.Half, min(span, totalHalves))
	var out [halfBytes]byte
	for i, f := range buckets {
		if err := writers[i].Flush(); err != nil {
			return err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		base := int64(i) * span
		hi := base + span
		if hi > totalHalves {
			hi = totalHalves
		}
		rd := bufio.NewReaderSize(f, 256<<10)
		for {
			if _, err := io.ReadFull(rd, rec[:]); err != nil {
				if err == io.EOF {
					break
				}
				return err
			}
			pos := int64(binary.LittleEndian.Uint64(rec[0:]))
			fill[pos-base] = graph.Half{
				To:   int64(binary.LittleEndian.Uint64(rec[8:])),
				Edge: int64(binary.LittleEndian.Uint64(rec[16:])),
			}
		}
		for _, h := range fill[:hi-base] {
			binary.LittleEndian.PutUint64(out[0:], uint64(h.To))
			binary.LittleEndian.PutUint64(out[8:], uint64(h.Edge))
			if _, err := bw.Write(out[:]); err != nil {
				return err
			}
		}
		name := f.Name()
		f.Close()
		os.Remove(name)
		buckets[i] = nil
	}
	return bw.Flush()
}

// NumVertices returns the vertex count.
func (pg *PagedGraph) NumVertices() int64 { return pg.n }

// NumEdges returns the undirected edge count.
func (pg *PagedGraph) NumEdges() int64 { return pg.m }

// Degree returns the undirected degree of v.
func (pg *PagedGraph) Degree(v graph.VertexID) int64 { return pg.offs[v+1] - pg.offs[v] }

// Adj returns v's adjacency halves, paging their span in as needed.
// The slice is valid only until the next Adj call.
func (pg *PagedGraph) Adj(v graph.VertexID) []graph.Half {
	lo, hi := pg.offs[v], pg.offs[v+1]
	if lo == hi {
		return nil
	}
	p0, p1 := lo/pg.pageHalves, (hi-1)/pg.pageHalves
	if p0 == p1 {
		p := pg.page(p0)
		base := p0 * pg.pageHalves
		return p.halves[lo-base : hi-base]
	}
	// The list spans pages: assemble into the scratch buffer.
	if int64(cap(pg.scratch)) < hi-lo {
		pg.scratch = make([]graph.Half, hi-lo)
	}
	pg.scratch = pg.scratch[:hi-lo]
	at := int64(0)
	for pi := p0; pi <= p1; pi++ {
		p := pg.page(pi)
		base := pi * pg.pageHalves
		s, e := int64(0), int64(len(p.halves))
		if base+s < lo {
			s = lo - base
		}
		if base+e > hi {
			e = hi - base
		}
		at += int64(copy(pg.scratch[at:], p.halves[s:e]))
	}
	return pg.scratch
}

// ForEachEdge re-scans the original EULGRPH1 file in blocks.
func (pg *PagedGraph) ForEachEdge(fn func(graph.Edge) error) error {
	f, err := os.Open(pg.edgePath)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := graph.NewScanner(f, pg.blockSz)
	if err != nil {
		return err
	}
	return sc.ForEachEdge(fn)
}

// page returns the page with the given index, faulting it in from the
// blob (and evicting the least-recently-used page over budget).
func (pg *PagedGraph) page(idx int64) *csrPage {
	if p, ok := pg.pages[idx]; ok {
		pg.touch(p)
		return p
	}
	base := idx * pg.pageHalves
	count := pg.pageHalves
	if base+count > 2*pg.m {
		count = 2*pg.m - base
	}
	if int64(cap(pg.raw)) < count*halfBytes {
		pg.raw = make([]byte, count*halfBytes)
	}
	raw := pg.raw[:count*halfBytes]
	if _, err := pg.blob.ReadAt(raw, base*halfBytes); err != nil {
		// The blob is a local file this process wrote; a read failure is
		// unrecoverable corruption, on par with an mmap SIGBUS.
		panic(fmt.Sprintf("oocgraph: reading CSR page %d: %v", idx, err))
	}
	var p *csrPage
	if n := len(pg.free); n > 0 {
		p = pg.free[n-1]
		pg.free = pg.free[:n-1]
	} else {
		p = &csrPage{}
	}
	if int64(cap(p.halves)) < count {
		p.halves = make([]graph.Half, count)
	}
	p.idx, p.halves = idx, p.halves[:count]
	for i := range p.halves {
		p.halves[i] = graph.Half{
			To:   int64(binary.LittleEndian.Uint64(raw[i*halfBytes:])),
			Edge: int64(binary.LittleEndian.Uint64(raw[i*halfBytes+8:])),
		}
	}
	pg.pages[idx] = p
	pg.pushFront(p)
	pageFaults.Add(1)
	pagesResident.Add(1)
	liveBytes.Add(count * halfBytes)
	for len(pg.pages) > pg.maxPages {
		pg.evict()
	}
	return p
}

func (pg *PagedGraph) touch(p *csrPage) {
	if pg.lruHead == p {
		return
	}
	pg.unlink(p)
	pg.pushFront(p)
}

func (pg *PagedGraph) pushFront(p *csrPage) {
	p.prev = nil
	p.next = pg.lruHead
	if pg.lruHead != nil {
		pg.lruHead.prev = p
	}
	pg.lruHead = p
	if pg.lruTail == nil {
		pg.lruTail = p
	}
}

func (pg *PagedGraph) unlink(p *csrPage) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		pg.lruHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		pg.lruTail = p.prev
	}
	p.prev, p.next = nil, nil
}

func (pg *PagedGraph) evict() {
	p := pg.lruTail
	if p == nil {
		return
	}
	pg.unlink(p)
	delete(pg.pages, p.idx)
	pagesResident.Add(-1)
	liveBytes.Add(-int64(len(p.halves)) * halfBytes)
	pg.free = append(pg.free, p)
}

// Close drops the resident pages and removes the halves blob.  The
// original edge file belongs to the caller and is left alone.
func (pg *PagedGraph) Close() error {
	for pg.lruTail != nil {
		pg.evict()
	}
	if pg.blob == nil {
		return nil
	}
	err := pg.blob.Close()
	if rmErr := os.Remove(pg.blobPath); err == nil {
		err = rmErr
	}
	pg.blob = nil
	return err
}
