package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// codePackages are the packages whose size is tracked beside the timings.
var codePackages = map[string]string{
	"grid": "internal/grid", "core": "internal/core", "shard": "internal/shard",
	"notify": "internal/notify", "wire": "internal/wire", "server": "internal/server",
	"client": "client", "cluster": "internal/cluster",
}

// repoRoot finds the checkout: the nearest directory, from the working
// directory up, that holds BENCHMARK.json.
func repoRoot() (string, bool) {
	dir, err := os.Getwd()
	for err == nil {
		if _, e := os.Stat(filepath.Join(dir, "BENCHMARK.json")); e == nil {
			return dir, true
		}
		up := filepath.Dir(dir)
		if up == dir {
			break
		}
		dir = up
	}
	return "", false
}

// codeLines counts, in the non-test Go files under dir, the lines that are
// neither blank nor comment. The benchmark itself is left out.
func codeLines(dir string) float64 {
	n := 0
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); name == "benchmark" || (strings.HasPrefix(name, ".") && path != dir) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		inBlock := false
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			switch {
			case inBlock:
				inBlock = !strings.Contains(line, "*/")
			case line == "" || strings.HasPrefix(line, "//"):
			case strings.HasPrefix(line, "/*"):
				inBlock = !strings.Contains(line, "*/")
			default:
				n++
			}
		}
		return nil
	})
	return float64(n)
}

// codeMetrics fills in the code.* metrics; zeros when the sources are not
// beside the binary.
func codeMetrics(m map[string]measure) {
	root, ok := repoRoot()
	lines := func(rel string) measure {
		if !ok {
			return measure{Unit: "count"}
		}
		return measure{Value: codeLines(filepath.Join(root, rel)), Unit: "count"}
	}
	m["code.nontest_lines"] = lines(".")
	for pkg, rel := range codePackages {
		m["code."+pkg+"_lines"] = lines(rel)
	}
}
