package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads builds vbsd and vbsgw from the repository and
// runs the smoke mode: every workload, one second untraced and one
// traced, with its output checks, replay checks and design checks.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemons and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/vbsd", "./cmd/vbsgw")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build daemons: %v\n%s", err, out)
	}
	var out bytes.Buffer
	err := smoke(options{seed: 1, bin: bin, work: t.TempDir(), root: ".."}, &out)
	t.Log(out.String())
	if err != nil {
		t.Fatal(err)
	}
}
