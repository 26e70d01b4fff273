package spill

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

// storeFactories enumerates the implementations under test.
func storeFactories(t *testing.T) map[string]func() Store {
	return map[string]func() Store{
		"disk": func() Store {
			s, err := NewDiskStore(filepath.Join(t.TempDir(), "spill.log"))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			payloads := map[int64][]byte{
				1:   []byte("alpha"),
				2:   {},
				7:   []byte("a longer payload with some structure 1234567890"),
				-3:  []byte{0, 1, 2, 255},
				100: bytes.Repeat([]byte{0xAB}, 10000),
			}
			for id, p := range payloads {
				if err := s.Put(id, p); err != nil {
					t.Fatalf("Put(%d): %v", id, err)
				}
			}
			if s.Len() != len(payloads) {
				t.Fatalf("Len = %d, want %d", s.Len(), len(payloads))
			}
			for id, want := range payloads {
				got, err := s.Get(id)
				if err != nil {
					t.Fatalf("Get(%d): %v", id, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("Get(%d) = %q, want %q", id, got, want)
				}
			}
		})
	}
}

func TestDuplicatePut(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			if err := s.Put(5, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(5, []byte("y")); err == nil {
				t.Fatal("duplicate Put should fail")
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			if _, err := s.Get(99); err == nil {
				t.Fatal("Get of missing record should fail")
			}
		})
	}
}

func TestPutCopiesData(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			buf := []byte("original")
			if err := s.Put(1, buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "CLOBBER!")
			got, err := s.Get(1)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "original" {
				t.Fatalf("payload aliased caller buffer: %q", got)
			}
		})
	}
}

func TestInterleavedPutGet(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			for i := int64(0); i < 50; i++ {
				if err := s.Put(i, []byte(fmt.Sprintf("record-%d", i))); err != nil {
					t.Fatal(err)
				}
				// Read back an earlier record between writes.
				got, err := s.Get(i / 2)
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("record-%d", i/2); string(got) != want {
					t.Fatalf("Get(%d) = %q, want %q", i/2, got, want)
				}
			}
		})
	}
}

func TestConcurrentAccess(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			const workers, per = 8, 100
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						id := int64(w*per + i)
						if err := s.Put(id, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
						if _, err := s.Get(id); err != nil {
							t.Errorf("Get: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if s.Len() != workers*per {
				t.Fatalf("Len = %d, want %d", s.Len(), workers*per)
			}
		})
	}
}

func TestDiskStoreBytesWritten(t *testing.T) {
	s, err := NewDiskStore(filepath.Join(t.TempDir(), "spill.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.BytesWritten() != 0 {
		t.Fatal("fresh store reports bytes")
	}
	if err := s.Put(1, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if s.BytesWritten() < 100 {
		t.Fatalf("BytesWritten = %d, want >= 100", s.BytesWritten())
	}
}

func TestQuickRoundTrip(t *testing.T) {
	s, err := NewDiskStore(filepath.Join(t.TempDir(), "spill.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var next int64
	f := func(data []byte) bool {
		next++
		if err := s.Put(next, data); err != nil {
			return false
		}
		got, err := s.Get(next)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDiskStoreReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.log")
	s, err := NewDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if err := s.Put(i, bytes.Repeat([]byte{byte(i)}, int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 20 {
		t.Fatalf("Len = %d, want 20", re.Len())
	}
	for i := int64(1); i <= 20; i++ {
		got, err := re.Get(i)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, int(i))) {
			t.Fatalf("Get(%d) corrupted", i)
		}
	}
	// Appending after reopen must work and not clobber old records.
	if err := re.Put(100, []byte("appended")); err != nil {
		t.Fatal(err)
	}
	got, err := re.Get(100)
	if err != nil || string(got) != "appended" {
		t.Fatalf("append after reopen: %q %v", got, err)
	}
	if got, _ := re.Get(7); len(got) != 7 {
		t.Fatal("old record damaged by append")
	}
}

func TestOpenDiskStoreMissing(t *testing.T) {
	if _, err := OpenDiskStore(filepath.Join(t.TempDir(), "nope.log")); err == nil {
		t.Fatal("missing file accepted")
	}
}
