package hetpapi

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// operationalDocs are the documents that tell a reader how to build, run
// and navigate the repo today. History documents (ROADMAP.md, CHANGES.md,
// EXPERIMENTS.md) name paths that existed when they were written, and
// hetbench/ is its own module, so neither is checked.
var operationalDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// docPath matches a repo path as the docs write it: ./cmd/..., ./examples/...
// or internal/..., starting a word (so hetbench/internal/... or a URL does
// not match) and running to the first space, quote or closing bracket.
var docPath = regexp.MustCompile("(?:^|[\\s`(\\[\"'|,])((?:\\./)?(?:cmd|examples|internal)/[^\\s`)\\]\"'|,;:]*)")

// placeholder matches a path segment that stands for any name: a single
// capital letter (cmd/X) or an <angle-bracketed> part (scorecard_<model>).
var placeholder = regexp.MustCompile(`(^|/)[A-Z](/|$)|<[^>]*>`)

// missingDocPaths returns the repo paths named in text that do not exist
// under root. A glob must match at least one file; placeholders are
// skipped.
func missingDocPaths(root, text string) []string {
	var missing []string
	for _, m := range docPath.FindAllStringSubmatch(text, -1) {
		p := strings.TrimPrefix(m[1], "./")
		p = strings.TrimSuffix(p, "/...")
		p = strings.TrimRight(p, "./")
		if placeholder.MatchString(p) {
			continue
		}
		full := filepath.Join(root, filepath.FromSlash(p))
		if strings.ContainsAny(p, "*?[") {
			if matches, _ := filepath.Glob(full); len(matches) > 0 {
				continue
			}
		} else if _, err := os.Stat(full); err == nil {
			continue
		}
		missing = append(missing, p)
	}
	return missing
}

// TestDocsReferenceExistingPaths: every package, command and file path
// the operational docs name must exist, so a deleted or renamed path
// cannot linger in a how-to.
func TestDocsReferenceExistingPaths(t *testing.T) {
	for _, doc := range operationalDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range missingDocPaths(".", string(text)) {
			t.Errorf("%s names %s, which does not exist", doc, p)
		}
	}
}

// TestMissingDocPathsHasTeeth checks the extractor on the forms the docs
// use: it flags a deleted example and a missing file, and passes real
// paths, package patterns, globs and placeholders.
func TestMissingDocPathsHasTeeth(t *testing.T) {
	text := "Run `go run ./examples/livemon` or `go run ./cmd/hetpapid -fleet 8`.\n" +
		"See internal/telemetry/collector.go and internal/telemetry/store.go;\n" +
		"`go test ./internal/telemetry/...`, (internal/fleet), cmd/X, " +
		"internal/validate/testdata/scorecard_<model>.golden.json, " +
		"internal/validate/testdata/scorecard_*.golden.json and hetbench/internal/nothing.\n"
	got := missingDocPaths(".", text)
	want := []string{"examples/livemon", "internal/telemetry/collector.go"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("missing paths %q, want %q", got, want)
	}
}
