package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsClean is the enforcement point: go test ./... fails when a
// core package grows an undocumented exported symbol or a flag/endpoint
// is missing from the runbook.
func TestRepoIsClean(t *testing.T) {
	violations, err := run("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}

// write lays out one file under a temp root.
func write(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLintHasTeeth proves the doc lint flags undocumented exported
// symbols and missing package docs, and stays quiet on documented and
// unexported ones.
func TestLintHasTeeth(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "x.go", `package x

// Documented is fine.
func Documented() {}

func Naked() {}

type Bare struct{}

func (Bare) Method() {}

type hidden struct{}

func (hidden) Exported() {} // unexported receiver: not API surface

// Covered block doc.
const (
	CoveredA = 1
	CoveredB = 2
)
`)
	vs, err := lintPackage(dir, "x")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(vs, "\n")
	for _, want := range []string{
		"function Naked has no doc comment",
		"type Bare has no doc comment",
		"method Bare.Method has no doc comment",
		"package x has no package doc comment",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("lint missed %q in:\n%s", want, joined)
		}
	}
	for _, wrong := range []string{"Documented", "hidden.Exported", "CoveredA"} {
		if strings.Contains(joined, wrong) {
			t.Errorf("lint flagged %s, which is documented or unexported:\n%s", wrong, joined)
		}
	}
	if len(vs) != 4 {
		t.Errorf("lint found %d violations, want exactly 4:\n%s", len(vs), joined)
	}
}

// TestFreshnessHasTeeth proves the runbook check catches an undocumented
// flag and endpoint and a flag row for a flag no command declares, and
// passes once both are mentioned and the stale row is gone.
func TestFreshnessHasTeeth(t *testing.T) {
	root := t.TempDir()
	write(t, root, "cmd/paotrserve/main.go", `package main

import (
	"flag"
	"net/http"
)

func main() {
	_ = flag.Bool("documented", false, "")
	_ = flag.Bool("forgotten", false, "")
	http.HandleFunc("GET /known", nil)
	http.HandleFunc("GET /secret/{id...}", nil)
}
`)
	write(t, root, "cmd/paotrload/main.go", `package main

import "flag"

func main() { _ = flag.Int("load-knob", 0, "") }
`)
	write(t, root, "docs/OPERATIONS.md", "| `-documented` | on |\n| `-removed` | off |\n-load-knob and /known\n")
	vs, err := checkFreshness(root)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(vs, "\n")
	if !strings.Contains(joined, "flag -forgotten is not documented") {
		t.Errorf("freshness missed the undocumented flag:\n%s", joined)
	}
	if !strings.Contains(joined, "endpoint /secret is not documented") {
		t.Errorf("freshness missed the undocumented endpoint (wildcard should be trimmed):\n%s", joined)
	}
	if !strings.Contains(joined, "row for flag -removed") {
		t.Errorf("freshness missed the stale flag row:\n%s", joined)
	}
	if len(vs) != 3 {
		t.Errorf("freshness found %d violations, want exactly 3:\n%s", len(vs), joined)
	}

	write(t, root, "docs/OPERATIONS.md", "| `-documented` | on |\n-forgotten -load-knob /known /secret\n")
	vs, err = checkFreshness(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("freshness still complains on a complete runbook: %v", vs)
	}
}

// TestFreshnessNeedsRunbook: a deleted runbook is an error, not a pass.
func TestFreshnessNeedsRunbook(t *testing.T) {
	root := t.TempDir()
	write(t, root, "cmd/paotrserve/main.go", "package main\nfunc main() {}\n")
	write(t, root, "cmd/paotrload/main.go", "package main\nfunc main() {}\n")
	if _, err := checkFreshness(root); err == nil {
		t.Error("missing runbook passed the freshness check")
	}
}
