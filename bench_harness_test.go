// Package psigene holds no code, only the tier-1 gate over bench/: the
// repository benchmark is a module of its own (bench/go.mod), so this
// module's `go vet ./...` and `go test ./...` never compile it, yet it
// imports internal/ packages and judges every PR.
package psigene

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchHarness runs what `make bench-check` runs, so that a change to
// an internal/ signature that breaks the benchmark fails `go test ./...`.
func TestBenchHarness(t *testing.T) {
	// The go command caches a passing result until a file the test
	// process itself consulted changes; what the child compiles does not
	// count. Stat every source file so an edit anywhere reruns the child.
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return fs.SkipDir
			}
			return nil
		}
		_, err = os.Stat(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	test := []string{"test", "-count=1", fmt.Sprintf("-short=%t", testing.Short()), "./..."}
	for _, args := range [][]string{{"vet", "./..."}, test} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("cd bench && go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
