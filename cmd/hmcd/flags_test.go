package main

import (
	"flag"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// TestFlagSurface pins the exact flag set of hmcd: a new flag is a
// deliberate edit here, not an accident.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "cache", "checkpoint-every", "crash-dir", "drain", "journal",
		"max-timeout", "portfolio", "pprof", "progress-every", "quarantine-dir", "queue",
		"timeout", "workers",
	}
	var got []string
	newFlags(new(daemonFlags)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hmcd flags = %q (%d), want %q (%d)", got, len(got), want, len(want))
	}
}

// TestDocumentedFlagsExist: every -flag in the package doc's Usage block
// and on every hmcd command line in README.md is defined.
func TestDocumentedFlagsExist(t *testing.T) {
	fs := newFlags(new(daemonFlags))
	for _, line := range append(usageLines(t), readmeCommands(t)...) {
		if bad := undefinedFlags(fs, line); len(bad) > 0 {
			t.Errorf("%q uses undefined flags %q", strings.TrimSpace(line), bad)
		}
	}
}

// usageLines returns the indented lines of the Usage block of the package
// doc in main.go.
func usageLines(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, usage, ok := strings.Cut(f.Doc.Text(), "Usage:\n\n")
	if !ok {
		t.Fatal("no Usage block in the package doc")
	}
	var lines []string
	for _, line := range strings.Split(usage, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		lines = append(lines, line)
	}
	return lines
}

// readmeCommands returns each hmcd command line in README.md, up to a
// closing backtick or a # comment.
func readmeCommands(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, m := range regexp.MustCompile("(?:^|[^\\w-])hmcd(\\s[^`#\\n]*)").FindAllStringSubmatch(string(data), -1) {
		lines = append(lines, "hmcd"+m[1])
	}
	if len(lines) == 0 {
		t.Fatal("no hmcd command line in README.md")
	}
	return lines
}

// undefinedFlags returns the -flag tokens of line that fs does not define.
func undefinedFlags(fs *flag.FlagSet, line string) []string {
	var bad []string
	for _, tok := range strings.Fields(line) {
		tok = strings.Trim(tok, "[](),;.")
		if len(tok) < 2 || tok[0] != '-' || !unicode.IsLetter(rune(tok[1])) {
			continue
		}
		if name, _, _ := strings.Cut(tok[1:], "="); fs.Lookup(name) == nil {
			bad = append(bad, tok)
		}
	}
	return bad
}
