package floodguard_test

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchModuleBuilds vets and tests the wire-to-wire benchmark
// harness from the root suite. bench/ is a nested module that `go test
// ./...` does not reach, yet it compiles against internal packages — so
// without this, deleting an API it uses stays green here and breaks the
// benchmark. Offline by construction (the module has no dependency but
// this one); no go.work, which would change how bench/run.sh builds.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and smoke-runs every benchmark workload")
	}
	// The test cache keys a result on the files this process touches, not
	// on what the go commands it starts read: stat every file the harness
	// is built from, so a change under bench/ or internal/ re-runs this.
	for _, root := range []string{"bench", "internal", "go.mod"} {
		if err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				_, err = os.Stat(path)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{{"vet", "."}, {"test", "-count=1", "."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-mod=readonly", "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("cd bench && go %v: %v\n%s", args, err, out)
		}
	}
}
