package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vipipe/internal/flowerr"
	"vipipe/internal/lint"
)

// buildLint compiles the real binary once per test binary; exit codes
// can only be asserted against an exec'd process (`go run` collapses
// them to 1).
func buildLint(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the vipilint binary")
	}
	bin := filepath.Join(t.TempDir(), "vipilint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running vipilint: %v", err)
	}
	return ee.ExitCode()
}

const dirtyFile = `package mc

import "time"

func Stamp() time.Time {
	return time.Now()
}
`

// TestExitCodes drives the binary end to end through its three exit
// classes: clean tree, findings, and a driver failure.
func TestExitCodes(t *testing.T) {
	bin := buildLint(t)

	dirty := writeTree(t, map[string]string{"internal/mc/bad.go": dirtyFile})
	out, err := exec.Command(bin, dirty).CombinedOutput()
	if code := exitCode(t, err); code != flowerr.ExitDRC {
		t.Errorf("dirty tree: exit %d, want %d (ExitDRC)\n%s", code, flowerr.ExitDRC, out)
	}
	if !strings.Contains(string(out), "determinism") || !strings.Contains(string(out), "bad.go:6:") {
		t.Errorf("dirty tree output missing the finding:\n%s", out)
	}

	clean := writeTree(t, map[string]string{"internal/mc/ok.go": "package mc\n"})
	out, err = exec.Command(bin, clean).CombinedOutput()
	if code := exitCode(t, err); code != flowerr.ExitOK {
		t.Errorf("clean tree: exit %d, want 0\n%s", code, out)
	}

	out, err = exec.Command(bin, filepath.Join(clean, "no-such-dir")).CombinedOutput()
	if code := exitCode(t, err); code != flowerr.ExitBadInput {
		t.Errorf("missing root: exit %d, want %d (ExitBadInput)\n%s", code, flowerr.ExitBadInput, out)
	}
}

// poisonTree is a minimal module that type-checks cleanly and
// contains one cache-poisoning bug only the dataflow analysis can see:
// a compute function mutating its deps slice in place.
var poisonTree = map[string]string{
	"go.mod": "module vipipe\n\ngo 1.22\n",
	"internal/pipeline/pipeline.go": `package pipeline

import "context"

type Node struct {
	ID      string
	Deps    []string
	Compute func(ctx context.Context, deps map[string]any) (any, error)
}

type Graph struct{ nodes []Node }

func (g *Graph) MustAdd(n Node) { g.nodes = append(g.nodes, n) }
func (g *Graph) Request(_ context.Context, ids []string) (map[string]any, error) {
	return nil, nil
}
`,
	"flow.go": `package main

import (
	"context"
	"sort"

	"vipipe/internal/pipeline"
)

func Register(g *pipeline.Graph) {
	g.MustAdd(pipeline.Node{
		ID:   "sorted",
		Deps: []string{"samples"},
		Compute: func(ctx context.Context, deps map[string]any) (any, error) {
			xs := deps["samples"].([]float64)
			sort.Float64s(xs)
			return xs, nil
		},
	})
}
`,
}

// TestTypedRules drives the artifact-ownership analysis through the
// built binary: it catches the in-place sort of a dep and exits
// ExitDRC.
func TestTypedRules(t *testing.T) {
	bin := buildLint(t)

	root := writeTree(t, poisonTree)
	out, err := exec.Command(bin, root).CombinedOutput()
	if code := exitCode(t, err); code != flowerr.ExitDRC {
		t.Errorf("typed run: exit %d, want %d (ExitDRC)\n%s", code, flowerr.ExitDRC, out)
	}
	if !strings.Contains(string(out), "artifactalias") || !strings.Contains(string(out), "sort.Float64s") {
		t.Errorf("typed run output missing the artifactalias finding:\n%s", out)
	}
}

// TestTypedJSON checks the machine-readable shape of a typed finding.
func TestTypedJSON(t *testing.T) {
	bin := buildLint(t)

	root := writeTree(t, poisonTree)
	out, err := exec.Command(bin, "-json", root).Output()
	if code := exitCode(t, err); code != flowerr.ExitDRC {
		t.Fatalf("typed -json run: exit %d, want %d", code, flowerr.ExitDRC)
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal(out, &diags); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	// Nothing in the tree calls Graph.Request, so the typed run adds a
	// deadcode finding after the artifactalias one.
	if len(diags) != 2 || diags[0].Rule != "artifactalias" || diags[0].File != "flow.go" || diags[0].Line == 0 ||
		diags[1].Rule != "deadcode" || !strings.Contains(diags[1].Msg, "pipeline.Graph).Request") {
		t.Errorf("unexpected diagnostics: %+v", diags)
	}
}

// TestBrokenPackage checks the degraded path under -strict: a package
// that does not type-check is one `lint` diagnostic, no rule runs on
// its files, and so none of their directives is stale.
func TestBrokenPackage(t *testing.T) {
	bin := buildLint(t)

	root := writeTree(t, map[string]string{
		"go.mod": "module vipipe\n\ngo 1.22\n",
		"internal/mc/bad.go": `package mc

//lint:ignore deadcode kept for a test
func Kept() int { return undefinedName }
`,
	})
	out, err := exec.Command(bin, "-strict", "-json", root).Output()
	if code := exitCode(t, err); code != flowerr.ExitDRC {
		t.Fatalf("broken package: exit %d, want %d\n%s", code, flowerr.ExitDRC, out)
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal(out, &diags); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if len(diags) != 1 || diags[0].Rule != "lint" || !strings.Contains(diags[0].Msg, "does not type-check") {
		t.Errorf("want exactly the type-check finding, got %+v", diags)
	}
}

// TestBrokenToolchain checks that a `go list` which cannot run is a
// driver failure, not a finding in every package: with GOROOT an empty
// directory the run exits ExitBadInput naming the command. A tree with
// no standard-library imports runs no go list and stays clean.
func TestBrokenToolchain(t *testing.T) {
	bin := buildLint(t)

	run := func(root string) ([]byte, error) {
		cmd := exec.Command(bin, root)
		cmd.Env = append(os.Environ(), "GOROOT="+t.TempDir())
		return cmd.CombinedOutput()
	}
	out, err := run(writeTree(t, map[string]string{"internal/mc/bad.go": dirtyFile}))
	if code := exitCode(t, err); code != flowerr.ExitBadInput {
		t.Errorf("empty GOROOT: exit %d, want %d (ExitBadInput)\n%s", code, flowerr.ExitBadInput, out)
	}
	if !strings.Contains(string(out), "go list") || strings.Contains(string(out), "does not type-check") {
		t.Errorf("want one driver error naming go list:\n%s", out)
	}

	out, err = run(writeTree(t, map[string]string{"internal/mc/ok.go": "package mc\n"}))
	if code := exitCode(t, err); code != flowerr.ExitOK {
		t.Errorf("no std imports under an empty GOROOT: exit %d, want 0\n%s", code, out)
	}
}

// TestJSONOutput checks that -json emits a machine-readable array in
// both the findings and the empty case.
func TestJSONOutput(t *testing.T) {
	bin := buildLint(t)

	dirty := writeTree(t, map[string]string{"internal/mc/bad.go": dirtyFile})
	out, err := exec.Command(bin, "-json", dirty).Output()
	if code := exitCode(t, err); code != flowerr.ExitDRC {
		t.Fatalf("dirty tree: exit %d, want %d", code, flowerr.ExitDRC)
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal(out, &diags); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	// Nothing in the tree calls Stamp, so the typed run adds a
	// deadcode finding on its declaration line.
	if len(diags) != 2 || diags[0].Rule != "deadcode" || diags[0].Line != 5 ||
		diags[1].Rule != "determinism" || diags[1].File != "internal/mc/bad.go" {
		t.Errorf("unexpected diagnostics: %+v", diags)
	}

	clean := writeTree(t, map[string]string{"internal/mc/ok.go": "package mc\n"})
	out, err = exec.Command(bin, "-json", clean).Output()
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("clean tree: exit %d, want 0", code)
	}
	if err := json.Unmarshal(out, &diags); err != nil || len(diags) != 0 {
		t.Errorf("clean -json output should be an empty array: %v\n%s", err, out)
	}
}
