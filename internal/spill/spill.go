// Package spill persists Phase 1 path and cycle bodies out of memory, as
// the paper requires: "the actual vertices and edges in the path/cycle can
// be persisted to disk" (Sec. 3.3.1), leaving only the pathMap metadata in
// memory.  Phase 3 reads the bodies back while unrolling the final circuit.
//
// The store maps an int64 record ID to an opaque byte payload.  Its one
// implementation, DiskStore, is an append-only log with an in-memory
// offset index.  The bodies of a run that does not spill stay in process,
// in the euler Registry.
package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// Store persists opaque records by ID.  Put must not be called twice with
// the same ID.  Implementations are safe for concurrent use.
type Store interface {
	// Put persists data under id.  The data slice is copied or written out
	// before Put returns; the caller may reuse it.
	Put(id int64, data []byte) error
	// Get returns the payload stored under id.
	Get(id int64) ([]byte, error)
	// Len returns the number of records stored.
	Len() int
	// Close releases resources.  Get must not be called after Close.
	Close() error
}

// DiskStore is an append-only log file with an in-memory index.  Records
// are framed as (id varint, length varint, payload).
type DiskStore struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	index  map[int64]span
	offset int64
	synced bool // whether the bufio writer has been flushed since last Put
}

type span struct {
	off int64
	len int64
}

// NewDiskStore creates (or truncates) the log file at path.
func NewDiskStore(path string) (*DiskStore, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &DiskStore{
		f:      f,
		w:      bufio.NewWriterSize(f, 1<<20),
		index:  make(map[int64]span),
		synced: true,
	}, nil
}

// Put implements Store.  The frame header is encoded before the lock is
// taken, so concurrent writers only serialise on the buffered appends
// themselves; small Puts batch up in the bufio writer and hit the disk
// once per megabyte, not once per record.
func (s *DiskStore) Put(id int64, data []byte) error {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutVarint(hdr[:], id)
	n += binary.PutUvarint(hdr[n:], uint64(len(data)))
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.index[id]; dup {
		return fmt.Errorf("spill: duplicate record %d", id)
	}
	if _, err := s.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := s.w.Write(data); err != nil {
		return err
	}
	s.index[id] = span{off: s.offset + int64(n), len: int64(len(data))}
	s.offset += int64(n) + int64(len(data))
	s.synced = false
	return nil
}

// Get implements Store.  It flushes pending writes on first read after a
// write, then serves reads via positioned I/O so readers do not disturb the
// append cursor.
func (s *DiskStore) Get(id int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.index[id]
	if !ok {
		return nil, fmt.Errorf("spill: record %d not found", id)
	}
	if !s.synced {
		if err := s.w.Flush(); err != nil {
			return nil, err
		}
		s.synced = true
	}
	buf := make([]byte, sp.len)
	if _, err := s.f.ReadAt(buf, sp.off); err != nil {
		return nil, err
	}
	return buf, nil
}

// Len implements Store.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// BytesWritten returns the total payload-plus-framing bytes appended so
// far; the memory-accounting experiments use it to report spill volume.
func (s *DiskStore) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.offset
}

// Close implements Store, flushing and closing the underlying file.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// OpenDiskStore opens an existing log file written by a previous DiskStore
// and rebuilds its index by scanning the frames, so a later process can
// read the spilled bodies back.
func OpenDiskStore(path string) (*DiskStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	s := &DiskStore{
		f:      f,
		index:  make(map[int64]span),
		synced: true,
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	for {
		id, err := binary.ReadVarint(r)
		if err != nil {
			break // EOF ends the scan; partial trailing frames are dropped
		}
		n, err := binary.ReadUvarint(r)
		if err != nil {
			break
		}
		hdr := varintLen(id) + uvarintLen(n)
		if _, err := r.Discard(int(n)); err != nil {
			break
		}
		s.index[id] = span{off: off + int64(hdr), len: int64(n)}
		off += int64(hdr) + int64(n)
	}
	s.offset = off
	if _, err := f.Seek(off, 0); err != nil {
		f.Close()
		return nil, err
	}
	s.w = bufio.NewWriterSize(f, 1<<20)
	return s, nil
}

func varintLen(x int64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutVarint(buf[:], x)
}

func uvarintLen(x uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], x)
}
