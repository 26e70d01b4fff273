package euler

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/spill"
)

// BuildSpilledLeafStates is the out-of-core variant of BuildLeafStates:
// instead of materialising every partition's state at once (which holds
// the whole edge list in memory), same-partition edges are bucketed to
// one temp file per partition during the scan, and each partition's
// state is then assembled, encoded, and written to store one at a time
// under the key of its worker ID.  Peak memory is O(cut) for the
// remote/stub/parked sets plus a single partition's local edges — the
// semi-external working set the paper's model promises.
//
// The per-partition edge order is the scan (EdgeID) order, identical to
// BuildLeafStates, so the encoded states are byte-identical to what the
// in-memory path would have produced.
func BuildSpilledLeafStates(g graph.Source, a partition.Assignment, tree *MergeTree, mode Mode, scratchDir string, store spill.Store) ([]map[int32][]RemoteEdge, error) {
	n := int(a.Parts)
	dir, err := os.MkdirTemp(scratchDir, "leafstates-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	files := make([]*os.File, n)
	writers := make([]*bufio.Writer, n)
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	for i := 0; i < n; i++ {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("part-%d.edges", i)))
		if err != nil {
			return nil, err
		}
		files[i] = f
		writers[i] = bufio.NewWriterSize(f, 32<<10)
	}

	type partExtra struct {
		remote []RemoteEdge
		stubs  []Stub
	}
	extras := make([]partExtra, n)
	var locals []int64
	var rec [3 * 8]byte
	parked, err := buildLeafStates(g, a, tree, mode, func(counts []int64) {
		locals = counts
	}, func(p int32, e graph.Edge) error {
		binary.LittleEndian.PutUint64(rec[0:], uint64(e.U))
		binary.LittleEndian.PutUint64(rec[8:], uint64(e.V))
		binary.LittleEndian.PutUint64(rec[16:], uint64(e.ID))
		_, err := writers[p].Write(rec[:])
		return err
	}, func(p int32, remote []RemoteEdge, stubs []Stub) error {
		extras[p] = partExtra{remote: remote, stubs: stubs}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble, encode, and spill one partition at a time.
	for i := 0; i < n; i++ {
		if err := writers[i].Flush(); err != nil {
			return nil, err
		}
		if _, err := files[i].Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		st := &PartState{Parent: i, Leaves: []int{i}, Remote: oneRun(extras[i].remote), Stubs: extras[i].stubs,
			Local: make([]CoarseEdge, 0, locals[i])}
		rd := bufio.NewReaderSize(files[i], 256<<10)
		for {
			if _, err := io.ReadFull(rd, rec[:]); err != nil {
				if err == io.EOF {
					break
				}
				return nil, err
			}
			st.Local = append(st.Local, CoarseEdge{
				U:    int64(binary.LittleEndian.Uint64(rec[0:])),
				V:    int64(binary.LittleEndian.Uint64(rec[8:])),
				Kind: ItemEdge,
				Ref:  int64(binary.LittleEndian.Uint64(rec[16:])),
			})
		}
		if err := store.Put(int64(i), EncodeState(st)); err != nil {
			return nil, err
		}
		name := files[i].Name()
		files[i].Close()
		files[i] = nil
		os.Remove(name)
		extras[i] = partExtra{}
	}
	return parked, nil
}
