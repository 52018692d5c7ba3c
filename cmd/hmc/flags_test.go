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

// flagNames lists the flags fs defines, in VisitAll's lexicographic order.
func flagNames(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

// TestFlagSurface pins the exact flag sets of hmc and hmc vet: a new flag
// is a deliberate edit here, not an accident.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"backend", "checkdeps", "checkpoint", "dot", "estimate", "live", "max", "max-events",
		"mem-budget", "model", "p", "progress", "races", "repro", "robust", "static", "stats",
		"symm", "test", "timeout", "trace", "v", "workers",
	}
	if got := flagNames(newFlags(new(options))); !reflect.DeepEqual(got, want) {
		t.Errorf("hmc flags = %q (%d), want %q (%d)", got, len(got), want, len(want))
	}
	wantVet := []string{"deps", "foot", "model", "test"}
	if got := flagNames(newVetFlags(new(vetOptions))); !reflect.DeepEqual(got, wantVet) {
		t.Errorf("hmc vet flags = %q, want %q", got, wantVet)
	}
}

// TestDocumentedFlagsExist: every -flag in the package doc's Usage and
// Examples blocks and on every hmc command line in README.md is defined.
func TestDocumentedFlagsExist(t *testing.T) {
	hmc, vet := newFlags(new(options)), newVetFlags(new(vetOptions))
	for _, line := range append(docBlockLines(t), readmeCommands(t, "hmc")...) {
		fs := hmc
		if strings.HasPrefix(strings.TrimSpace(line), "hmc vet") {
			fs = vet
		}
		if bad := undefinedFlags(fs, line); len(bad) > 0 {
			t.Errorf("%q uses undefined flags %q", strings.TrimSpace(line), bad)
		}
	}
}

// docBlockLines returns the indented lines of the Usage and Examples
// blocks of the package doc in main.go.
func docBlockLines(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	in := false
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		switch {
		case line == "Usage:" || line == "Examples:":
			in = true
		case strings.HasPrefix(line, "\t"):
			if in {
				lines = append(lines, line)
			}
		case line != "":
			in = false
		}
	}
	if len(lines) == 0 {
		t.Fatal("no Usage or Examples block in the package doc")
	}
	return lines
}

// readmeCommands returns each cmd command line in README.md, up to a
// closing backtick or a # comment.
func readmeCommands(t *testing.T, cmd string) []string {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?:^|[^\w-])` + cmd + "(\\s[^`#\\n]*)")
	var lines []string
	for _, m := range re.FindAllStringSubmatch(string(data), -1) {
		lines = append(lines, cmd+m[1])
	}
	if len(lines) == 0 {
		t.Fatalf("no %s command line in README.md", cmd)
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
