package lint

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vipipe/internal/flowerr"
)

var update = flag.Bool("update", false, "rewrite the golden want files under testdata")

// runCorpus lints one fixture tree and renders the diagnostics the
// way vipilint prints them, one per line.
func runCorpus(t *testing.T, corpus string, opts Options) string {
	t.Helper()
	diags, err := Run(filepath.Join("testdata", corpus), opts)
	if err != nil {
		t.Fatalf("Run(testdata/%s): %v", corpus, err)
	}
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares got against testdata/<corpus>/<name>, or
// rewrites the golden when -update is set.
func checkGolden(t *testing.T, corpus, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", corpus, name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", corpus, got, want)
	}
}

func TestDeterminismCorpus(t *testing.T) {
	got := runCorpus(t, "determinism", Options{Rules: []Rule{determinismRule{}}})
	checkGolden(t, "determinism", "want.txt", got)
}

func TestMapOrderCorpus(t *testing.T) {
	got := runCorpus(t, "maporder", Options{Rules: []Rule{mapOrderRule{}}})
	checkGolden(t, "maporder", "want.txt", got)
}

func TestErrTaxonomyCorpus(t *testing.T) {
	got := runCorpus(t, "errtaxonomy", Options{Rules: []Rule{errTaxonomyRule{}}})
	checkGolden(t, "errtaxonomy", "want.txt", got)
}

func TestCtxFirstCorpus(t *testing.T) {
	got := runCorpus(t, "ctxfirst", Options{Rules: []Rule{ctxFirstRule{}}})
	checkGolden(t, "ctxfirst", "want.txt", got)
}

func TestGoroutineCorpus(t *testing.T) {
	got := runCorpus(t, "goroutine", Options{Rules: []Rule{goroutineRule{}}})
	checkGolden(t, "goroutine", "want.txt", got)
}

func TestFsConfineCorpus(t *testing.T) {
	got := runCorpus(t, "fsconfine", Options{Rules: []Rule{fsConfineRule{}}})
	checkGolden(t, "fsconfine", "want.txt", got)
}

// TestArtifactAliasCorpus drives the typed dataflow rule over its
// fixture module: store/graph-result writes, deps mutations (direct,
// in-place append and via a summarized callee), retained scratch
// buffers — and the clone/fresh-buffer idioms that must stay silent.
func TestArtifactAliasCorpus(t *testing.T) {
	got := runCorpus(t, "artifactalias", Options{Rules: []Rule{artifactAliasRule{}}, Typed: true})
	checkGolden(t, "artifactalias", "want.txt", got)
	for _, frag := range []string{"bad.go:19", "bad.go:30", "bad.go:43", "bad.go:65", "bad.go:77"} {
		if !strings.Contains(got, frag) {
			t.Errorf("diagnostics missing expected finding at %s:\n%s", frag, got)
		}
	}
	for _, clean := range []string{"good.go", "suppressed.go"} {
		if strings.Contains(got, clean) {
			t.Errorf("false positive in %s:\n%s", clean, got)
		}
	}
}

// TestArtifactAliasFastSilent pins the -fast contract: without the
// typed layer the rule reports nothing, even over the bad corpus.
func TestArtifactAliasFastSilent(t *testing.T) {
	got := runCorpus(t, "artifactalias", Options{Rules: []Rule{artifactAliasRule{}}})
	if got != "" {
		t.Errorf("artifactalias reported in AST-only mode:\n%s", got)
	}
}

// TestSharedCaptureCorpus covers the goroutine-closure write rule:
// unsynchronized captured writes are findings; per-slot index writes,
// mutex windows (inline and deferred) and channel handoffs are not.
func TestSharedCaptureCorpus(t *testing.T) {
	got := runCorpus(t, "sharedcapture", Options{Rules: []Rule{sharedCaptureRule{}}, Typed: true})
	checkGolden(t, "sharedcapture", "want.txt", got)
	for _, frag := range []string{"bad.go:16", "bad.go:33", "bad.go:50"} {
		if !strings.Contains(got, frag) {
			t.Errorf("diagnostics missing expected finding at %s:\n%s", frag, got)
		}
	}
	for _, clean := range []string{"good.go", "suppressed.go"} {
		if strings.Contains(got, clean) {
			t.Errorf("false positive in %s:\n%s", clean, got)
		}
	}
}

// TestDeadcodeCorpus drives the reachability rule over its fixture
// module. Unreached functions and methods, and a function only a
// _test.go file calls, are findings; what a main, the root package's
// API, the paper harness, a goroutine, fmt's String lookup,
// sort.Interface, a program interface, a method-expression table, a
// generic instance or a keep-directive reaches is not. A directive on
// reached code is stale.
func TestDeadcodeCorpus(t *testing.T) {
	got := runCorpus(t, "deadcode", Options{Rules: []Rule{deadcodeRule{}}, Typed: true, Strict: true})
	checkGolden(t, "deadcode", "want.txt", got)
	for _, name := range []string{"x.Unreached is", "x.TestOnly is", "x.Temp).Unused is", "x.Square).Perimeter is", "x.Box[V]).Put is", "stale //lint:ignore deadcode"} {
		if !strings.Contains(got, name) {
			t.Errorf("diagnostics missing %q:\n%s", name, got)
		}
	}
	for _, live := range []string{"FromAPI", "FromHarness", "Spin", "String", "Len", "Less", "Swap", "Area", "double", "Dispatch", "NewBox", "Get", "Kept", "keptHelper", "Entry", "main"} {
		if strings.Contains(got, "."+live+" is unreached") {
			t.Errorf("reached function %s reported:\n%s", live, got)
		}
	}
	if fast := runCorpus(t, "deadcode", Options{Rules: []Rule{deadcodeRule{}}}); fast != "" {
		t.Errorf("deadcode reported in AST-only mode:\n%s", fast)
	}
}

// TestSuppressCorpus drives the directive handling end to end: a live
// trailing suppression hides its finding, an unknown rule and a
// missing reason are findings themselves (and suppress nothing, so
// the violation underneath still surfaces).
func TestSuppressCorpus(t *testing.T) {
	got := runCorpus(t, "suppress", Options{})
	checkGolden(t, "suppress", "want.txt", got)
	if strings.Contains(got, "Stamp") {
		t.Errorf("valid suppression leaked a finding:\n%s", got)
	}
	for _, frag := range []string{"unknown rule \"nosuchrule\"", "needs a reason"} {
		if !strings.Contains(got, frag) {
			t.Errorf("diagnostics missing %q:\n%s", frag, got)
		}
	}
}

// TestSuppressStrict adds the stale-directive report: the directive
// in Clean suppresses nothing and must be called out in strict mode
// only.
func TestSuppressStrict(t *testing.T) {
	loose := runCorpus(t, "suppress", Options{})
	if strings.Contains(loose, "stale") {
		t.Errorf("stale directive reported without -strict:\n%s", loose)
	}
	strict := runCorpus(t, "suppress", Options{Strict: true})
	checkGolden(t, "suppress", "want_strict.txt", strict)
	if !strings.Contains(strict, "stale //lint:ignore determinism") {
		t.Errorf("strict run did not report the stale directive:\n%s", strict)
	}
}

func TestRunBadRoot(t *testing.T) {
	_, err := Run(filepath.Join("testdata", "no-such-tree"), Options{})
	if !errors.Is(err, flowerr.ErrBadInput) {
		t.Fatalf("Run on missing root = %v, want flowerr.ErrBadInput", err)
	}
}

// TestLintSelf holds the repo to its own rules under the full typed
// analysis: a plain `go test ./...` fails if a violation (or a stale
// suppression) creeps in, even when nobody runs `make ci`. Strict
// staleness is judged here, where every rule can fire.
func TestLintSelf(t *testing.T) {
	diags, err := Run(filepath.Join("..", ".."), Options{Strict: true, Typed: true})
	if err != nil {
		t.Fatalf("Run(repo root): %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("%d lint finding(s) in the tree; fix them or add //lint:ignore <rule> <reason>", len(diags))
	}
}

// TestLintSelfFast keeps the pre-commit mode honest: the AST layer
// alone must also pass (without strict — suppressions of typed-only
// findings look stale to it by design).
func TestLintSelfFast(t *testing.T) {
	diags, err := Run(filepath.Join("..", ".."), Options{})
	if err != nil {
		t.Fatalf("Run(repo root): %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("%d fast-mode lint finding(s) in the tree", len(diags))
	}
}
