package main

import (
	"flag"
	"fmt"
	"io"

	"hmc/internal/analyze"
	"hmc/internal/memmodel"
)

// vet implements the `hmc vet` subcommand: static analysis only, no
// exploration. Findings print one per line prefixed with the program
// label (file path or corpus test name), in the file:line style of go vet.
func vet(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hmc vet", flag.ContinueOnError)
	model := fs.String("model", "imm", "memory model for model-aware lints (fence effectiveness): "+fmt.Sprint(memmodel.Names()))
	all := fs.Bool("all", false, "lint under every model (union of findings)")
	testName := fs.String("test", "", "vet a built-in corpus test instead of a file")
	foot := fs.Bool("foot", false, "print the location footprint summary (readers/writers per location)")
	deps := fs.Bool("deps", false, "print per-instruction static dependency sets (addr/data/ctrl)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	label := *testName
	if label == "" && len(fs.Args()) == 1 {
		label = fs.Args()[0]
	}
	p, err := loadProgram(fs.Args(), *testName)
	if err != nil {
		// Parse and validation failures are themselves the vet verdict.
		return fmt.Errorf("vet: %w", err)
	}
	if label == "" || label == "-" {
		label = p.Name
	}

	models := []string{*model}
	if *all {
		models = memmodel.Names()
	}
	for _, name := range models {
		if _, merr := memmodel.ByName(name); merr != nil {
			return merr
		}
	}

	r := analyze.Analyze(p)
	seen := map[string]bool{}
	var fs2 []analyze.Finding
	for _, name := range models {
		for _, f := range r.Lint(name) {
			key := f.String()
			if !seen[key] {
				seen[key] = true
				fs2 = append(fs2, f)
			}
		}
	}

	counts := map[analyze.Severity]int{}
	for _, f := range fs2 {
		counts[f.Sev]++
		fmt.Fprintf(out, "%s:%s\n", label, f)
	}

	if *foot {
		fmt.Fprintf(out, "footprint:\n%s", r.Foot.Summary(p))
	}
	if *deps {
		for t := range p.Threads {
			for pc, in := range p.Threads[t] {
				d := r.Threads[t].Deps[pc]
				if len(d.Addr)+len(d.Data)+len(d.Ctrl) == 0 {
					continue
				}
				fmt.Fprintf(out, "t%d:%d: %v  deps addr=%v data=%v ctrl=%v\n", t, pc, in, d.Addr, d.Data, d.Ctrl)
			}
		}
	}

	total := len(fs2)
	if total == 0 {
		fmt.Fprintf(out, "%s: clean\n", label)
	} else {
		fmt.Fprintf(out, "%s: %d findings (%d error, %d warn, %d info)\n",
			label, total, counts[analyze.Error], counts[analyze.Warn], counts[analyze.Info])
	}
	if counts[analyze.Error] > 0 {
		return fmt.Errorf("vet: %s: %d error-severity findings", label, counts[analyze.Error])
	}
	return nil
}
