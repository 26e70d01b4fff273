package euler

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/spill"
)

// Checkpoint format: the full Registry book-keeping the paper keeps on disk
// between phases (pathMap metadata, anchored-cycle index, visited map,
// master and seeds), so Phase 3 can run in a separate process against a
// reopened spill store.
//
//	magic    [8]byte "EULREG01"
//	master   varint
//	seeds    uvarint count + varints
//	recs     uvarint count + (id, type byte, src, dst, level, part, items)
//	anchored uvarint count + (vertex, uvarint n, n path IDs)
//	visited  uvarint |V| + bitset bytes

var checkpointMagic = [8]byte{'E', 'U', 'L', 'R', 'E', 'G', '0', '1'}

// Save serialises the registry's book-keeping to w.  Path bodies are NOT
// included: they already live in the spill store, which must be a
// DiskStore for a checkpoint to be useful across processes.
func (r *Registry) Save(w io.Writer) error {
	if err := r.ensureSealed(); err != nil {
		return fmt.Errorf("euler: cannot checkpoint unsealable registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, 64)
	flush := func() error {
		_, err := bw.Write(buf)
		buf = buf[:0]
		return err
	}
	buf = binary.AppendVarint(buf, r.master)
	buf = binary.AppendUvarint(buf, uint64(len(r.seeds)))
	for _, s := range r.seeds {
		buf = binary.AppendVarint(buf, s)
	}
	if err := flush(); err != nil {
		return err
	}

	buf = binary.AppendUvarint(buf, uint64(len(r.recs)))
	if err := flush(); err != nil {
		return err
	}
	// The sealed pathMap is sorted by ID, which also keeps checkpoints
	// byte-comparable across runs of the same computation.
	for _, rec := range r.recs {
		buf = binary.AppendVarint(buf, rec.ID)
		buf = append(buf, byte(rec.Type))
		buf = binary.AppendVarint(buf, rec.Src)
		buf = binary.AppendVarint(buf, rec.Dst)
		buf = binary.AppendVarint(buf, int64(rec.Level))
		buf = binary.AppendVarint(buf, int64(rec.Part))
		buf = binary.AppendVarint(buf, rec.Items)
		if err := flush(); err != nil {
			return err
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(r.anchorVerts)))
	if err := flush(); err != nil {
		return err
	}
	for k, v := range r.anchorVerts {
		ids := r.anchorIDs[r.anchorOff[k]:r.anchorOff[k+1]]
		buf = binary.AppendVarint(buf, v)
		buf = binary.AppendUvarint(buf, uint64(len(ids)))
		for _, id := range ids {
			buf = binary.AppendVarint(buf, id)
		}
		if err := flush(); err != nil {
			return err
		}
	}

	buf = binary.AppendUvarint(buf, uint64(r.numVerts))
	if err := flush(); err != nil {
		return err
	}
	bits := make([]byte, (r.numVerts+7)/8)
	for i := int64(0); i < r.numVerts; i++ {
		if r.visited[i>>5].Load()&(1<<(uint(i)&31)) != 0 {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	if _, err := bw.Write(bits); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadRegistry reads a checkpoint written by Save, binding it to the given
// spill store (typically spill.OpenDiskStore of the original body log).
func LoadRegistry(rd io.Reader, store spill.Store) (*Registry, error) {
	br := bufio.NewReaderSize(rd, 1<<20)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("euler: checkpoint header: %w", err)
	}
	if got != checkpointMagic {
		return nil, fmt.Errorf("euler: bad checkpoint magic %q", got[:])
	}
	readV := func() (int64, error) { return binary.ReadVarint(br) }
	readU := func() (uint64, error) { return binary.ReadUvarint(br) }

	master, err := readV()
	if err != nil {
		return nil, err
	}
	nSeeds, err := readU()
	if err != nil {
		return nil, err
	}
	seeds := make([]PathID, 0, nSeeds)
	for i := uint64(0); i < nSeeds; i++ {
		s, err := readV()
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, s)
	}

	nRecs, err := readU()
	if err != nil {
		return nil, err
	}
	var recs []PathRec
	for i := uint64(0); i < nRecs; i++ {
		id, err := readV()
		if err != nil {
			return nil, err
		}
		tb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		src, err := readV()
		if err != nil {
			return nil, err
		}
		dst, err := readV()
		if err != nil {
			return nil, err
		}
		level, err := readV()
		if err != nil {
			return nil, err
		}
		part, err := readV()
		if err != nil {
			return nil, err
		}
		items, err := readV()
		if err != nil {
			return nil, err
		}
		recs = append(recs, PathRec{
			ID: id, Type: PathType(tb), Src: src, Dst: dst,
			Level: int(level), Part: int(part), Items: items,
		})
	}

	nAnch, err := readU()
	if err != nil {
		return nil, err
	}
	var anch []anchor
	for i := uint64(0); i < nAnch; i++ {
		v, err := readV()
		if err != nil {
			return nil, err
		}
		n, err := readU()
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < n; j++ {
			id, err := readV()
			if err != nil {
				return nil, err
			}
			anch = append(anch, anchor{v: v, id: id})
		}
	}

	nVerts, err := readU()
	if err != nil {
		return nil, err
	}
	bits := make([]byte, (nVerts+7)/8)
	if _, err := io.ReadFull(br, bits); err != nil {
		return nil, fmt.Errorf("euler: checkpoint visited bitmap: %w", err)
	}
	visited := make([]atomic.Uint32, (nVerts+31)/32)
	for i := uint64(0); i < nVerts; i++ {
		if bits[i/8]&(1<<(i%8)) != 0 {
			visited[i>>5].Store(visited[i>>5].Load() | 1<<(uint(i)&31))
		}
	}

	r := &Registry{
		store:    store,
		visited:  visited,
		numVerts: int64(nVerts),
		master:   master,
		seeds:    seeds,
	}
	if err := r.buildIndex(recs, anch); err != nil {
		return nil, fmt.Errorf("euler: checkpoint pathMap: %w", err)
	}
	r.sealed.Store(true) // loaded registries are read-only: no shards to merge
	return r, nil
}
