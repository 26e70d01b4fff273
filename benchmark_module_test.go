package euler_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModule runs the tests of the nested benchmark module
// (benchmark/ has its own go.mod, so the root `go test ./...` does not
// reach it).  The benchmark calls internal packages of this module from
// outside; this is what makes a signature change in them fail tier-1
// instead of surfacing only when the benchmark is next built.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and smoke-runs the benchmark's six workloads")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "test", "./...")
	cmd.Dir = "benchmark"
	// The module needs only this checkout and the standard library; these
	// keep the toolchain from looking anywhere else.
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GOPROXY=off", "GOSUMDB=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go test ./... in benchmark/: %v\n%s", err, out)
	}
}
