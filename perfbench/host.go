package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance says where and on what a result was measured.
type provenance struct {
	Host struct {
		Cores  int    `json:"cores"`
		CPU    string `json:"cpu_model"`
		Go     string `json:"go_version"`
		Kernel string `json:"kernel"`
	} `json:"host"`
	// Commit is the git HEAD when the tree is a git checkout, else
	// "unknown"; TreeSHA256 identifies the measured source either way.
	Commit     string `json:"commit"`
	TreeSHA256 string `json:"tree_sha256"`
	Seed       int64  `json:"seed"`
}

func newProvenance(root string, seed int64) provenance {
	var p provenance
	p.Host.Cores = runtime.NumCPU()
	p.Host.CPU = cpuModel()
	p.Host.Go = runtime.Version()
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Host.Kernel = strings.TrimSpace(string(b))
	}
	p.Commit = "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	p.TreeSHA256 = treeDigest(root)
	p.Seed = seed
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeDigest hashes go.mod and every .go file of the program (the
// root package, cmd/ and internal/), path and content, in walk order.
func treeDigest(root string) string {
	h := sha256.New()
	add := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			return
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	add(filepath.Join(root, "go.mod"))
	if files, err := filepath.Glob(filepath.Join(root, "*.go")); err == nil {
		for _, f := range files {
			add(f)
		}
	}
	for _, sub := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, sub), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				add(path)
			}
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}
