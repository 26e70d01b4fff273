package graph_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// naiveDecode is the reference EULGRPH1 decoder: the format read field by
// field, with each check the Scanner makes spelled out after it.  ok is
// false for any input the format does not admit.
func naiveDecode(data []byte) (vertices int64, edges []graph.Edge, ok bool) {
	br := bufio.NewReader(bytes.NewReader(data))
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil || string(got[:]) != "EULGRPH1" {
		return 0, nil, false
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, false
	}
	m, err := binary.ReadUvarint(br)
	if err != nil || n > 1<<40 || m > 1<<40 {
		return 0, nil, false
	}
	for i := uint64(0); i < m; i++ {
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, nil, false
		}
		v, err := binary.ReadUvarint(br)
		if err != nil || u >= n || v >= n || u == v {
			return 0, nil, false
		}
		edges = append(edges, graph.Edge{ID: int64(i), U: int64(u), V: int64(v)})
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return 0, nil, false // trailing data
	}
	return int64(n), edges, true
}

// scanAll decodes data with the Scanner at the given block size.
func scanAll(data []byte, blockSize int) (vertices int64, edges []graph.Edge, err error) {
	sc, err := graph.NewScanner(bytes.NewReader(data), blockSize)
	if err != nil {
		return 0, nil, err
	}
	err = sc.ForEachEdge(func(e graph.Edge) error {
		edges = append(edges, e)
		return nil
	})
	return sc.NumVertices(), edges, err
}

// FuzzBlockReader throws arbitrary bytes at the EULGRPH1 Scanner — the
// one decoder of the format, trusted with untrusted upload bodies.  It
// must never panic, must refuse exactly the inputs the reference decoder
// refuses (with an error wrapping ErrBadFormat), and must decode the
// accepted ones to the same edge list, as must graph.Read.
func FuzzBlockReader(f *testing.F) {
	seed := func(g *graph.Graph) []byte {
		var buf bytes.Buffer
		if err := graph.Write(&buf, g); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(gen.Cycle(5)))
	f.Add(seed(gen.Torus(3, 3)))
	f.Add(seed(gen.RingOfCliques(2, 3)))
	// Header-only, truncated body, trailing garbage, oversized varint.
	hdr := graph.AppendHeader(nil, 4, 2)
	f.Add(append([]byte{}, hdr...))
	f.Add(append(append([]byte{}, hdr...), 0x00))
	f.Add(append(append([]byte{}, seed(gen.Cycle(3))...), 0xff, 0xff))
	over := append([]byte{}, hdr...)
	over = append(over, binary.AppendUvarint(nil, 1<<40)...)
	f.Add(over)

	f.Fuzz(func(t *testing.T, data []byte) {
		n, want, ok := naiveDecode(data)
		// A 64-byte block makes records straddle block boundaries.
		gotN, got, err := scanAll(data, 64)
		if err != nil {
			if ok {
				t.Fatalf("scanner refused an input the reference accepts: %v", err)
			}
			if !errors.Is(err, graph.ErrBadFormat) {
				t.Fatalf("refusal %v does not wrap ErrBadFormat", err)
			}
			return
		}
		if !ok {
			t.Fatal("scanner accepted an input the reference refuses")
		}
		if gotN != n {
			t.Fatalf("scanner read %d vertices, reference %d", gotN, n)
		}
		assertEdges(t, got, want)
		if n > 1<<20 {
			// graph.Read's O(V) allocation would dominate the run.
			return
		}
		g, err := graph.Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("graph.Read refused an accepted input: %v", err)
		}
		assertEdges(t, g.Edges(), want)
	})
}

func assertEdges(t *testing.T, got, want []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d edges, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
