package core

import (
	"fmt"
	"testing"

	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// sinkAudit is the outcome of exploring one program with the full model
// check run on every sink extension.
type sinkAudit struct {
	audited int    // sink extensions the seam saw
	failed  int    // of them, how many the model rejects
	first   string // the first rejected graph, for the report
}

// auditSinks explores p under opts with the auditSink seam calling
// opts.Model.Consistent on every sink extension the explorer admits
// without a check. The run is sequential, so the seam needs no lock.
func auditSinks(t *testing.T, p *prog.Program, opts Options) sinkAudit {
	t.Helper()
	var a sinkAudit
	e := newExplorer(p, opts)
	e.auditSink = func(g *eg.Graph) {
		a.audited++
		if !opts.Model.Consistent(eg.NewView(g)) {
			a.failed++
			if a.first == "" {
				a.first = g.String()
			}
		}
	}
	e.visit(eg.NewGraph(len(p.Threads), p.NumLocs))
	e.sh.wg.Wait()
	if got := e.sh.res.SinkExtensions; got != a.audited {
		t.Fatalf("%s under %s: the seam saw %d sink extensions, Stats count %d",
			p.Name, opts.Model.Name(), a.audited, got)
	}
	return a
}

// failure describes the sink extensions the model rejected, or is empty
// when it rejected none.
func (a sinkAudit) failure(p *prog.Program, opts Options) string {
	if a.failed == 0 {
		return ""
	}
	return fmt.Sprintf("%s under %s (static=%v): %d of %d sink extensions fail the full check; first:\n%s\nprogram:\n%s",
		p.Name, opts.Model.Name(), opts.StaticAnalysis, a.failed, a.audited, a.first, p)
}

// TestPropSinkExtensionsPassFullCheck is the referee of the extension
// contract the explorer relies on to skip the model check: extending a
// consistent graph by a sink — a fence, a read (or an update that steals
// no chain) of the co-maximal write, or a co-maximal write — keeps it
// consistent under every model. Every sink extension reached on the litmus
// corpus, the standard families (with and without static pruning) and 500
// random programs is run through the full check, under all 8 models. It is
// also why Stats.StuckReads is 0: the co-maximal rf source is always there.
func TestPropSinkExtensionsPassFullCheck(t *testing.T) {
	type input struct {
		p      *prog.Program
		static bool
	}
	var inputs []input
	for _, tc := range litmus.Corpus() {
		inputs = append(inputs, input{p: tc.P})
	}
	for _, p := range []*prog.Program{
		gen.SBN(4), gen.LBN(4), gen.MPN(3), gen.IRIWN(2), gen.IncN(2, 2), gen.CASContendN(3),
	} {
		inputs = append(inputs, input{p: p}, input{p: p, static: true})
	}
	for seed := int64(0); seed < 500; seed++ {
		inputs = append(inputs, input{p: gen.Random(seed)})
	}
	audited := 0
	for _, in := range inputs {
		for _, m := range memmodel.All() {
			opts := Options{Model: m, StaticAnalysis: in.static}
			a := auditSinks(t, in.p, opts)
			audited += a.audited
			if msg := a.failure(in.p, opts); msg != "" {
				t.Fatal(msg)
			}
		}
	}
	if audited == 0 {
		t.Fatal("no sink extension reached the seam: the property is vacuous")
	}
	t.Logf("%d sink extensions over %d programs × %d models, every one consistent",
		audited, len(inputs), len(memmodel.All()))
}

// coMaxRfeBanned is a deliberately non-extensible model: SC, except that
// no read may read the co-maximal write of another thread. A graph in
// which that write gained a co successor passes, so the model is not
// monotone under extension, and reading the co-maximal write — a sink
// extension — is exactly what it rejects.
type coMaxRfeBanned struct{ memmodel.SC }

func (coMaxRfeBanned) Name() string { return "comax-rfe-banned" }

func (m coMaxRfeBanned) Consistent(v *eg.View) bool {
	if !m.SC.Consistent(v) {
		return false
	}
	g := v.G
	for i := range v.Events {
		ev := &v.Events[i]
		if !ev.Kind.IsRead() || ev.ID.IsInit() {
			continue
		}
		w, ok := g.RF(ev.ID)
		if !ok || w.IsInit() || w.T == ev.ID.T {
			continue
		}
		if co := g.CoLoc(ev.Loc); co[len(co)-1] == w {
			return false
		}
	}
	return true
}

// TestSinkAuditCatchesNonExtensibleModel shows the property test has
// teeth: under a model that rejects some reads of the co-maximal write,
// the audit reports the sink extensions the explorer admitted unchecked.
func TestSinkAuditCatchesNonExtensibleModel(t *testing.T) {
	tc, ok := litmus.ByName("MP")
	if !ok {
		t.Fatal("MP missing from the corpus")
	}
	opts := Options{Model: coMaxRfeBanned{}}
	a := auditSinks(t, tc.P, opts)
	if a.failure(tc.P, opts) == "" {
		t.Fatalf("MP under %s: the audit reported no failing sink extension (%d audited)",
			opts.Model.Name(), a.audited)
	}
}

// FuzzSinkExtension runs the sink-extension property on FuzzExplore's
// decoder-generated programs under every model, with and without static
// pruning.
func FuzzSinkExtension(f *testing.F) {
	f.Add([]byte{2, 2, 2, 0, 5, 1, 9}, uint8(0))
	f.Add([]byte{2, 2, 2, 1, 3, 1, 17, 2, 0, 7, 1, 19}, uint8(9))
	f.Add([]byte{3, 3, 3, 3, 12, 2, 33, 4, 5}, uint8(2))
	f.Add([]byte{1, 1, 4, 6, 1, 7, 2, 1, 3}, uint8(13))
	f.Add([]byte{2, 1, 2, 2, 8, 3, 40}, uint8(7))

	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		p := decodeProgram(data)
		names := memmodel.Names()
		m, err := memmodel.ByName(names[int(sel)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Model:          m,
			StaticAnalysis: sel&8 != 0,
			MaxExecutions:  256,
			MaxEvents:      48,
			MaxSteps:       64,
		}
		if msg := auditSinks(t, p, opts).failure(p, opts); msg != "" {
			t.Fatal(msg)
		}
	})
}
