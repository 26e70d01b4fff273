package graph

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := FromEdges(6, [][2]VertexID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {0, 1}})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for i, e := range g.Edges() {
		if got.Edges()[i] != e {
			t.Fatalf("edge %d: got %+v, want %+v", i, got.Edges()[i], e)
		}
	}
}

func TestReadBadMagic(t *testing.T) {
	_, err := Read(strings.NewReader("NOTAGRAPHFILE"))
	if err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestReadTruncated(t *testing.T) {
	g := FromEdges(3, [][2]VertexID{{0, 1}, {1, 2}})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	b := buf.Bytes()
	if _, err := Read(bytes.NewReader(b[:len(b)-1])); err == nil {
		t.Fatal("expected error for truncated input")
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.bin")
	g := FromEdges(4, [][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err := WriteFile(path, g); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", got.NumEdges())
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestReadRejectsMalformed: every malformed stream is an error wrapping
// ErrBadFormat, never a panic — including the endpoint faults Builder
// would panic on.
func TestReadRejectsMalformed(t *testing.T) {
	hdr := func(n, m uint64, body ...byte) []byte { return append(AppendHeader(nil, n, m), body...) }
	cases := map[string][]byte{
		"badMagic":           []byte("NOTGRPH1\x04\x01\x00\x01"),
		"headerOnly":         hdr(4, 2),
		"headerCut":          hdr(300, 2)[:9],
		"outOfRange":         hdr(4, 1, 0, 9),
		"selfLoop":           hdr(4, 1, 1, 1),
		"undecodableVarints": hdr(4, 8, bytes.Repeat([]byte{0x80}, 16)...),
		"truncated":          hdr(4, 2, 0, 1, 1),
		"trailing":           hdr(4, 1, 0, 1, 0),
		"implausibleCounts":  hdr(1<<41, 0),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("Read error %v, want one wrapping ErrBadFormat", err)
			}
		})
	}
}
