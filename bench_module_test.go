package lapcc

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchModuleBuilds compiles bench/, the benchmark's own module, which
// `go build ./...` at the root never reaches. The benchmark links the
// internal packages through a replace directive, so an API change there
// that breaks it fails here, with the compiler's output.
func TestBenchModuleBuilds(t *testing.T) {
	cmd := exec.Command("go", "build", "-o", filepath.Join(t.TempDir(), "lapccbench"), ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build in bench/: %v\n%s", err, out)
	}
}
