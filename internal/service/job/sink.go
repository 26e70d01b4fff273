package job

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/jobkind"
	"repro/internal/spill"
)

// DefaultBatchSteps is the number of circuit steps framed into one
// spill record.  A frame holds the steps' NDJSON lines: euler lines
// average 35 bytes on a 21 k-edge RMAT graph and 40 bytes on a
// 1.05 M-edge one, so a frame is 143-162 KB.  Even a postman line with
// three 19-digit IDs (under 100 bytes) keeps a frame below the spill
// store's 1 MiB write buffer.
const DefaultBatchSteps = 4096

// CircuitSink persists a streamed circuit to disk as it is emitted, so
// the result never has to fit in server memory.  Each step is rendered
// in the job kind's NDJSON line format as it arrives; every
// DefaultBatchSteps lines form one frame, appended to a spill.DiskStore
// (record ID = frame index).  The stored frames are exactly the bytes
// the HTTP circuit endpoint serves, so egress and the result cache's
// commit are raw frame copies.
//
// Append and Finish are called by the single worker goroutine running
// the job; IterateBatches may be called concurrently by any number of
// HTTP streams once Finish has returned.
type CircuitSink struct {
	mu       sync.Mutex
	store    *spill.DiskStore
	kind     jobkind.Kind
	frame    []byte // lines of the steps not yet flushed
	records  int64
	steps    int64
	finished bool

	// Close is deferred while readers hold the sink: eviction of a job
	// mid-stream must not close the log file under an in-flight
	// IterateBatches (unlinking the file is harmless, closing the fd is
	// not).
	refs    int
	closing bool
	closed  bool
}

// NewCircuitSink creates the backing log at path; steps are rendered
// in kind's line format.
func NewCircuitSink(path string, kind jobkind.Kind) (*CircuitSink, error) {
	ds, err := spill.NewDiskStore(path)
	if err != nil {
		return nil, err
	}
	return &CircuitSink{store: ds, kind: kind}, nil
}

// Append renders one step into the open frame, flushing it to disk
// once it holds DefaultBatchSteps lines.
func (c *CircuitSink) Append(s graph.Step) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return fmt.Errorf("job: append after Finish")
	}
	c.frame = c.kind.AppendLine(c.frame, s)
	c.steps++
	if c.steps%DefaultBatchSteps == 0 {
		return c.flushLocked()
	}
	return nil
}

// Finish flushes the trailing partial frame and seals the sink for
// reading.
func (c *CircuitSink) Finish() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return nil
	}
	if err := c.flushLocked(); err != nil {
		return err
	}
	c.finished = true
	return nil
}

func (c *CircuitSink) flushLocked() error {
	if len(c.frame) == 0 {
		return nil
	}
	// The DiskStore writes the payload through its bufio writer before
	// Put returns, so one frame buffer serves every frame of the job.
	if err := c.store.Put(c.records, c.frame); err != nil {
		return err
	}
	c.records++
	c.frame = c.frame[:0]
	return nil
}

// Steps returns the number of steps appended so far.
func (c *CircuitSink) Steps() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steps
}

// IterateBatches replays the persisted circuit's frames in order.  It
// requires Finish, and the sink stays open for the duration even if
// Close is called concurrently.
func (c *CircuitSink) IterateBatches(fn func(frame []byte) error) error {
	c.mu.Lock()
	if !c.finished {
		c.mu.Unlock()
		return fmt.Errorf("job: iterate before Finish")
	}
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("job: iterate after Close")
	}
	c.refs++
	records := c.records
	c.mu.Unlock()
	defer c.release()
	for i := int64(0); i < records; i++ {
		data, err := c.store.Get(i)
		if err != nil {
			return fmt.Errorf("job: circuit frame %d: %w", i, err)
		}
		if err := fn(data); err != nil {
			return err
		}
	}
	return nil
}

// Acquire takes a reader reference so a concurrent Close (retention
// eviction) is deferred until Release.  It returns false once the sink
// is closed or closing.
func (c *CircuitSink) Acquire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.finished || c.closed || c.closing {
		return false
	}
	c.refs++
	return true
}

// Release drops the reference taken by Acquire.
func (c *CircuitSink) Release() { c.release() }

// release drops a reader reference, completing a deferred Close when
// the last reader leaves.
func (c *CircuitSink) release() {
	c.mu.Lock()
	c.refs--
	doClose := c.refs == 0 && c.closing && !c.closed
	if doClose {
		c.closed = true
	}
	c.mu.Unlock()
	if doClose {
		c.store.Close()
	}
}

// Close releases the backing store.  If readers are mid-IterateBatches
// the close is deferred until the last one finishes; Close is
// idempotent.
func (c *CircuitSink) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	if c.refs > 0 {
		c.closing = true
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.store.Close()
}
