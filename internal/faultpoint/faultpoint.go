// Package faultpoint provides named fault-injection points for exercising
// the failure paths of the distributed engine without hacking test-only
// branches into production code.  A binary arms points from a flag (eulerd's
// -faultpoints); code under test declares a point by name and asks Eval
// what (if anything) should go wrong here.
//
// The disarmed fast path is one atomic load, so permanent call sites in
// the bsp wire and dial paths cost effectively nothing in production.
//
// Spec grammar (flag value): semicolon-separated entries of
//
//	name=action[,key=value ...]
//
// where action is one of:
//
//	error   return an injected error from the call site
//	drop    close the connection (simulates a peer dying mid-superstep)
//	delay   sleep before proceeding (ms=N, default 50)
//
// and the optional parameters are:
//
//	step=N   only fire when the call site reports superstep N
//	nth=N    fire on the Nth eligible call (1-based; default 1st)
//	times=N  fire at most N times (default 1; times=0 means unlimited)
//	ms=N     delay duration in milliseconds (delay action only)
//
// Example: drop node wire conn at superstep 1, once, and fail the first
// two redials:
//
//	bsp.node.wire=drop,step=1,times=1;bsp.node.dial=error,times=2
package faultpoint

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Action is what an armed point does when it fires.
type Action int

const (
	// None means the point is disarmed or did not fire.
	None Action = iota
	// Error injects an error at the call site.
	Error
	// Drop tells the call site to close its connection.
	Drop
	// Delay tells the call site to sleep for Outcome.Sleep first.
	Delay
)

func (a Action) String() string {
	switch a {
	case Error:
		return "error"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	default:
		return "none"
	}
}

// Outcome is Eval's verdict for one call.
type Outcome struct {
	Act   Action
	Sleep time.Duration // set for Delay
	Err   error         // set for Error
}

// Fired reports whether the point fired at all.
func (o Outcome) Fired() bool { return o.Act != None }

// point is one armed injection point.
type point struct {
	name  string
	act   Action
	step  int   // -1: any superstep
	nth   int64 // fire on the nth eligible call (1-based)
	times int64 // remaining firings; <0 means unlimited
	sleep time.Duration

	calls int64 // eligible calls seen
	hits  int64 // times fired
}

var (
	armed atomic.Bool // fast path: any point armed at all?

	mu     sync.Mutex
	points map[string][]*point
)

// Arm parses spec and arms its points, adding to whatever is already
// armed.  An empty spec is a no-op.  Errors leave the registry unchanged.
func Arm(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	var parsed []*point
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		p, err := parsePoint(entry)
		if err != nil {
			return fmt.Errorf("faultpoint %q: %w", entry, err)
		}
		parsed = append(parsed, p)
	}
	if len(parsed) == 0 {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string][]*point)
	}
	for _, p := range parsed {
		points[p.name] = append(points[p.name], p)
	}
	armed.Store(true)
	return nil
}

// Reset disarms every point.  Tests call this in cleanup.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = nil
	armed.Store(false)
}

func parsePoint(entry string) (*point, error) {
	name, rest, ok := strings.Cut(entry, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return nil, errors.New("want name=action[,key=value ...]")
	}
	parts := strings.Split(rest, ",")
	p := &point{name: name, step: -1, nth: 1, times: 1, sleep: 50 * time.Millisecond}
	switch strings.TrimSpace(parts[0]) {
	case "error":
		p.act = Error
	case "drop":
		p.act = Drop
	case "delay":
		p.act = Delay
	default:
		return nil, fmt.Errorf("unknown action %q (want error, drop, or delay)", parts[0])
	}
	for _, kv := range parts[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad parameter %q (want key=value)", kv)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad value for %s: %q", key, val)
		}
		switch key {
		case "step":
			p.step = n
		case "nth":
			if n < 1 {
				return nil, errors.New("nth must be >= 1")
			}
			p.nth = int64(n)
		case "times":
			if n == 0 {
				p.times = -1 // unlimited
			} else {
				p.times = int64(n)
			}
		case "ms":
			p.sleep = time.Duration(n) * time.Millisecond
		default:
			return nil, fmt.Errorf("unknown parameter %q", key)
		}
	}
	return p, nil
}

// Eval asks whether the named point fires for this call.  step is the
// call site's superstep, or -1 when it has none (dial paths).  Disarmed
// points cost one atomic load.
func Eval(name string, step int) Outcome {
	if !armed.Load() {
		return Outcome{}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range points[name] {
		if p.times == 0 {
			continue // budget exhausted
		}
		if p.step >= 0 && step >= 0 && p.step != step {
			continue
		}
		if p.step >= 0 && step < 0 {
			continue // step-scoped point, step-less call site
		}
		p.calls++
		if p.calls < p.nth {
			continue
		}
		if p.times > 0 {
			p.times--
		}
		p.hits++
		out := Outcome{Act: p.act, Sleep: p.sleep}
		if p.act == Error {
			out.Err = fmt.Errorf("faultpoint: injected error at %s", name)
		}
		return out
	}
	return Outcome{}
}

// Hits returns how many times any point with this name has fired.
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	var n int64
	for _, p := range points[name] {
		n += p.hits
	}
	return n
}
