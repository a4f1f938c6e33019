// Package analyzertest runs sciql-lint analyzers over small fixture
// packages under a testdata/src tree and matches the reported
// diagnostics against // want "regexp" comments, in the spirit of
// golang.org/x/tools/go/analysis/analysistest (which the offline build
// cannot vendor).
//
// Fixture packages import each other by their path under testdata/src
// (so a fixture at testdata/src/ctxpoll/internal/exec has import path
// "ctxpoll/internal/exec" and may import "value" or
// "internal/catalog"). Fixture directories shadow standard-library
// paths — testdata/src/context stands in for context — keeping the
// tests hermetic; anything not found under the fixture root falls back
// to typechecking GOROOT source.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analyzers"
	"repro/internal/analyzers/analysis"
)

// Run loads each fixture package, applies the analyzers through the
// same runner the vettool uses (so //lint:allow suppression semantics
// are identical), and checks the surviving diagnostics against the
// fixtures' // want comments. Every diagnostic must be wanted and
// every want must be matched.
func Run(t *testing.T, testdata string, as []*analysis.Analyzer, paths ...string) {
	t.Helper()
	l := newLoader(filepath.Join(testdata, "src"))
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		diags, err := analyzers.Run(l.fset, p.files, p.pkg, p.info, as)
		if err != nil {
			t.Fatalf("running analyzers on %s: %v", path, err)
		}
		wants := collectWants(t, l.fset, p.files)
		for _, d := range diags {
			pos := l.fset.Position(d.Pos)
			if !wants.match(pos, d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s [%s]", pos, d.Message, d.Category)
			}
		}
		wants.reportUnmatched(t)
	}
}

// Source typechecks an in-memory package — import path pkgPath, its
// files given as name → source text, imports resolved like a fixture's
// (testdata/src first) — applies the analyzers, and returns the
// surviving diagnostics' messages. It is for tests that build a tiny
// package around a piece of real code and assert what the analyzers
// make of it.
func Source(t *testing.T, testdata string, as []*analysis.Analyzer, pkgPath string, src map[string]string) []string {
	t.Helper()
	l := newLoader(filepath.Join(testdata, "src"))
	var files []*ast.File
	for name, text := range src {
		f, err := parser.ParseFile(l.fset, name, text, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	p, err := l.check(pkgPath, files)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analyzers.Run(l.fset, p.files, p.pkg, p.info, as)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", pkgPath, err)
	}
	msgs := make([]string, len(diags))
	for i, d := range diags {
		msgs[i] = d.Message
	}
	return msgs
}

// loader typechecks fixture packages with fixture-first import
// resolution.
type loader struct {
	root     string
	fset     *token.FileSet
	pkgs     map[string]*fixturePkg
	fallback types.Importer
}

type fixturePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader(root string) *loader {
	l := &loader{
		root: root,
		fset: token.NewFileSet(),
		pkgs: map[string]*fixturePkg{},
	}
	// GOROOT-source importing works without a module proxy.
	l.fallback = importer.ForCompiler(l.fset, "source", nil)
	return l
}

// Import implements types.Importer for the fixture typechecker.
func (l *loader) Import(path string) (*types.Package, error) {
	if dirExists(filepath.Join(l.root, filepath.FromSlash(path))) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	if from, ok := l.fallback.(types.ImporterFrom); ok {
		return from.ImportFrom(path, l.root, 0)
	}
	return l.fallback.Import(path)
}

func (l *loader) load(path string) (*fixturePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, filepath.Join(dir, e.Name()))
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return l.check(path, files)
}

// check typechecks files as the package at path and memoizes it.
func (l *loader) check(path string, files []*ast.File) (*fixturePkg, error) {
	info := analysis.NewInfo()
	var tcErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { tcErrs = append(tcErrs, err) },
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	if len(tcErrs) > 0 {
		msgs := make([]string, len(tcErrs))
		for i, e := range tcErrs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("typecheck errors in fixture %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	p := &fixturePkg{pkg: pkg, files: files, info: info}
	l.pkgs[path] = p
	return p, nil
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// want is one expectation: a diagnostic on a given file:line whose
// message matches re.
type want struct {
	pos     token.Position
	raw     string
	re      *regexp.Regexp
	matched bool
}

type wantSet map[string][]*want // "file:line" → expectations

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) wantSet {
	t.Helper()
	set := wantSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range parseWantPatterns(t, pos, strings.TrimPrefix(text, "want ")) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					key := lineKey(pos)
					set[key] = append(set[key], &want{pos: pos, raw: raw, re: re})
				}
			}
		}
	}
	return set
}

// parseWantPatterns splits the payload of a want comment into its
// quoted regexps (double- or back-quoted, any number).
func parseWantPatterns(t *testing.T, pos token.Position, rest string) []string {
	t.Helper()
	var out []string
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		quoted, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Fatalf("%s: malformed want comment near %q (expected quoted regexp)", pos, rest)
		}
		raw, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: malformed want pattern %s: %v", pos, quoted, err)
		}
		out = append(out, raw)
		rest = rest[len(quoted):]
	}
	return out
}

func lineKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// match consumes the first unmatched expectation on the diagnostic's
// line whose regexp matches the message.
func (s wantSet) match(pos token.Position, message string) bool {
	for _, w := range s[lineKey(pos)] {
		if !w.matched && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

func (s wantSet) reportUnmatched(t *testing.T) {
	t.Helper()
	for _, ws := range s {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", w.pos, w.raw)
			}
		}
	}
}
