package analyze

import (
	"fmt"
	"sort"
	"strings"

	"hmc/internal/eg"
	"hmc/internal/prog"
)

// Severity grades a finding. Error findings describe programs that are
// wrong whenever the flagged code runs; Warn findings are almost
// certainly mistakes; Info findings are structural observations (missed
// symmetry, model-specific no-ops) that a correct test may well contain.
type Severity uint8

const (
	Info Severity = iota
	Warn
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// Finding is one diagnostic, addressed in file:line style as thread:pc.
type Finding struct {
	Sev    Severity
	Code   string // stable kebab-case diagnostic id
	Thread int    // -1 for program-level findings
	PC     int    // -1 for thread- or program-level findings
	Msg    string
}

// String renders the finding in the vet report format:
//
//	t0:2: [useless-fence] lw fence has no ordering effect under tso (info)
func (f Finding) String() string {
	pos := "prog"
	if f.Thread >= 0 && f.PC >= 0 {
		pos = fmt.Sprintf("t%d:%d", f.Thread, f.PC)
	} else if f.Thread >= 0 {
		pos = fmt.Sprintf("t%d", f.Thread)
	}
	return fmt.Sprintf("%s: [%s] %s (%s)", pos, f.Code, f.Msg, f.Sev)
}

// Lint returns the full diagnostic set for the program: the
// model-independent findings computed by Analyze plus model-aware ones
// (fences that cannot order anything under the named model). An empty or
// unknown model name skips the model-aware pass.
func (r *Result) Lint(model string) []Finding {
	out := append([]Finding(nil), r.Findings...)
	if effective, ok := fenceEffective[model]; ok {
		for t, code := range r.P.Threads {
			for pc, inst := range code {
				if inst.Op != prog.IFence || !r.Threads[t].Reachable[pc] {
					continue
				}
				if !effective[inst.Fence] {
					out = append(out, Finding{
						Sev: Info, Code: "useless-fence", Thread: t, PC: pc,
						Msg: fmt.Sprintf("fence.%v has no ordering effect under %s", inst.Fence, model),
					})
				}
			}
		}
	}
	sortFindings(out)
	return out
}

// fenceEffective records, per memory model, which fence kinds can affect
// the model's ordering axiom at all. Derived from internal/memmodel: the
// store-buffer models consult full (tso) and full+lw (pso) fences; the
// dependency-aware hardware models (arm, imm) consult all three kinds;
// rc11's sc-fence axiom consults full fences only; sc, ra and relaxed
// never look at fences.
var fenceEffective = map[string]map[eg.FenceKind]bool{
	"sc":      {},
	"tso":     {eg.FenceFull: true},
	"pso":     {eg.FenceFull: true, eg.FenceLW: true},
	"arm":     {eg.FenceFull: true, eg.FenceLW: true, eg.FenceLD: true},
	"ra":      {},
	"rc11":    {eg.FenceFull: true},
	"relaxed": {},
	"imm":     {eg.FenceFull: true, eg.FenceLW: true, eg.FenceLD: true},
}

// lintModelFree computes every model-independent diagnostic.
func (r *Result) lintModelFree() []Finding {
	var out []Finding
	out = append(out, r.lintUnreachable()...)
	out = append(out, r.lintConstConds()...)
	out = append(out, r.lintAddrRange()...)
	out = append(out, r.lintDeadStores()...)
	out = append(out, r.lintUnwrittenRegs()...)
	out = append(out, r.lintFencePositions()...)
	out = append(out, r.lintRacyPairs()...)
	out = append(out, r.lintSymmetryCandidates()...)
	sortFindings(out)
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}

// lintUnreachable reports maximal runs of unreachable instructions.
func (r *Result) lintUnreachable() []Finding {
	var out []Finding
	for t := range r.P.Threads {
		reach := r.Threads[t].Reachable
		for pc := 0; pc < len(reach); {
			if reach[pc] {
				pc++
				continue
			}
			end := pc
			for end+1 < len(reach) && !reach[end+1] {
				end++
			}
			msg := "instruction is unreachable"
			if end > pc {
				msg = fmt.Sprintf("instructions %d..%d are unreachable", pc, end)
			}
			out = append(out, Finding{Sev: Info, Code: "unreachable", Thread: t, PC: pc, Msg: msg})
			pc = end + 1
		}
	}
	return out
}

// lintConstConds reports branches, assumes and asserts whose condition is
// a compile-time constant.
func (r *Result) lintConstConds() []Finding {
	var out []Finding
	for t, code := range r.P.Threads {
		for pc, inst := range code {
			if !r.Threads[t].Reachable[pc] {
				continue
			}
			v, ok := ConstExpr(inst.Cond)
			if !ok || inst.Cond == nil {
				continue
			}
			switch inst.Op {
			case prog.IBranch:
				way := "always"
				if v == 0 {
					way = "never"
				}
				out = append(out, Finding{Sev: Info, Code: "const-branch", Thread: t, PC: pc,
					Msg: fmt.Sprintf("branch condition is constant: %s taken", way)})
			case prog.IAssume:
				if v == 0 {
					out = append(out, Finding{Sev: Warn, Code: "blocked-assume", Thread: t, PC: pc,
						Msg: "assume is statically false: every execution reaching it blocks"})
				} else {
					out = append(out, Finding{Sev: Info, Code: "vacuous-assume", Thread: t, PC: pc,
						Msg: "assume is vacuously true"})
				}
			case prog.IAssert:
				if v == 0 {
					out = append(out, Finding{Sev: Error, Code: "failing-assert", Thread: t, PC: pc,
						Msg: "assertion is statically false: fails whenever reached"})
				} else {
					out = append(out, Finding{Sev: Warn, Code: "vacuous-assert", Thread: t, PC: pc,
						Msg: "assertion is vacuously true: it can never fail"})
				}
			}
		}
	}
	return out
}

// lintAddrRange reports constant addresses outside the location table.
func (r *Result) lintAddrRange() []Finding {
	var out []Finding
	for t, code := range r.P.Threads {
		for pc, inst := range code {
			if !r.Threads[t].Reachable[pc] || inst.Addr == nil {
				continue
			}
			switch inst.Op {
			case prog.ILoad, prog.IStore, prog.ICAS, prog.IFAdd, prog.IXchg:
				if v, ok := ConstExpr(inst.Addr); ok && (v < 0 || v >= int64(r.P.NumLocs)) {
					out = append(out, Finding{Sev: Warn, Code: "addr-range", Thread: t, PC: pc,
						Msg: fmt.Sprintf("address %d out of range [0,%d): executing this access is a runtime error", v, r.P.NumLocs)})
				}
			}
		}
	}
	return out
}

// lintDeadStores reports stores to locations no instruction ever reads.
// When the program has an Exists predicate the final value may still be
// observed (the predicate is an opaque closure over all of memory), so
// the finding is informational; without one the store is provably dead.
func (r *Result) lintDeadStores() []Finding {
	var out []Finding
	for t, code := range r.P.Threads {
		for pc, inst := range code {
			if !r.Threads[t].Reachable[pc] || inst.Op != prog.IStore {
				continue
			}
			v, ok := ConstExpr(inst.Addr)
			if !ok || v < 0 || v >= int64(r.P.NumLocs) {
				continue
			}
			if !r.Foot.NeverRead(eg.Loc(v)) {
				continue
			}
			name := r.P.LocName(eg.Loc(v))
			if r.P.Exists != nil {
				out = append(out, Finding{Sev: Info, Code: "dead-store", Thread: t, PC: pc,
					Msg: fmt.Sprintf("store to %s is never read by any instruction (final-state predicate may still observe it)", name)})
			} else {
				out = append(out, Finding{Sev: Warn, Code: "dead-store", Thread: t, PC: pc,
					Msg: fmt.Sprintf("store to %s is never read", name)})
			}
		}
	}
	return out
}

// lintUnwrittenRegs reports registers read before any possible write.
// Registers are zero-initialized by the interpreter, so this is not a
// crash — but a register whose first use precedes every assignment on
// some path almost always indicates a mis-built program.
func (r *Result) lintUnwrittenRegs() []Finding {
	var out []Finding
	for t, code := range r.P.Threads {
		assigned := mustAssigned(code, r.P.NumRegs[t])
		seen := map[[2]int]bool{} // (pc, reg) dedup
		for pc, inst := range code {
			if !r.Threads[t].Reachable[pc] || assigned[pc] == nil {
				continue
			}
			for _, e := range readExprs(inst) {
				for _, reg := range e.Regs(nil) {
					if int(reg) >= r.P.NumRegs[t] || assigned[pc].get(int(reg)) {
						continue
					}
					k := [2]int{pc, int(reg)}
					if seen[k] {
						continue
					}
					seen[k] = true
					out = append(out, Finding{Sev: Warn, Code: "unwritten-register", Thread: t, PC: pc,
						Msg: fmt.Sprintf("register r%d may be read before any write (reads as 0)", reg)})
				}
			}
		}
	}
	return out
}

// readExprs lists the expressions an instruction evaluates.
func readExprs(inst prog.Instr) []*prog.Expr {
	var out []*prog.Expr
	for _, e := range []*prog.Expr{inst.Addr, inst.Val, inst.Old, inst.New, inst.Cond} {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// destRegs lists the registers an instruction assigns.
func destRegs(inst prog.Instr) []prog.Reg {
	switch inst.Op {
	case prog.ILoad, prog.IMov, prog.IFAdd, prog.IXchg:
		return []prog.Reg{inst.Dst}
	case prog.ICAS:
		if inst.Succ >= 0 {
			return []prog.Reg{inst.Dst, inst.Succ}
		}
		return []prog.Reg{inst.Dst}
	}
	return nil
}

// mustAssigned runs the definite-assignment dataflow for one thread:
// out[pc] is the set of registers assigned on *every* path from entry to
// pc (intersection join), nil for unreachable pcs.
func mustAssigned(code []prog.Instr, numRegs int) []bits {
	n := len(code)
	in := make([]bits, n+1)
	in[0] = newBits(numRegs)
	work := []int{0}
	propagate := func(pc int, st bits) {
		if pc < 0 || pc > n {
			return
		}
		if in[pc] == nil {
			in[pc] = st.clone()
			work = append(work, pc)
		} else if in[pc].and(st) {
			work = append(work, pc)
		}
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if pc >= n {
			continue
		}
		st := in[pc].clone()
		inst := code[pc]
		for _, d := range destRegs(inst) {
			if int(d) < numRegs {
				st.set(int(d))
			}
		}
		switch inst.Op {
		case prog.IBranch:
			if v, ok := ConstExpr(inst.Cond); ok {
				if v != 0 {
					propagate(inst.Target, st)
				} else {
					propagate(pc+1, st)
				}
			} else {
				propagate(inst.Target, st)
				propagate(pc+1, st)
			}
		case prog.IJmp:
			propagate(inst.Target, st)
		case prog.IAssume:
			if v, ok := ConstExpr(inst.Cond); ok && v == 0 {
				break
			}
			propagate(pc+1, st)
		default:
			propagate(pc+1, st)
		}
	}
	return in[:n]
}

// lintFencePositions reports fences that cannot order anything because no
// memory access can execute before (or after) them on any path.
func (r *Result) lintFencePositions() []Finding {
	var out []Finding
	for t, code := range r.P.Threads {
		before, after := accessReach(code, r.Threads[t].Reachable)
		for pc, inst := range code {
			if inst.Op != prog.IFence || !r.Threads[t].Reachable[pc] {
				continue
			}
			switch {
			case !before[pc] && !after[pc]:
				out = append(out, Finding{Sev: Warn, Code: "useless-fence", Thread: t, PC: pc,
					Msg: "no memory access can execute before or after this fence: it cannot order anything"})
			case !before[pc]:
				out = append(out, Finding{Sev: Warn, Code: "useless-fence", Thread: t, PC: pc,
					Msg: "no memory access can execute before this fence on any path: it cannot order anything"})
			case !after[pc]:
				out = append(out, Finding{Sev: Warn, Code: "useless-fence", Thread: t, PC: pc,
					Msg: "no memory access can execute after this fence on any path: it cannot order anything"})
			}
		}
	}
	return out
}

// accessReach computes, per pc, whether some path from entry executes a
// memory access strictly before pc (before) and whether some path from pc
// executes one strictly after (after). Constant-folded control flow is
// respected, matching the reachability analysis.
func accessReach(code []prog.Instr, reachable []bool) (before, after []bool) {
	n := len(code)
	isAccess := func(pc int) bool {
		switch code[pc].Op {
		case prog.ILoad, prog.IStore, prog.ICAS, prog.IFAdd, prog.IXchg:
			return true
		}
		return false
	}
	succs := make([][]int, n)
	for pc, inst := range code {
		if !reachable[pc] {
			continue
		}
		switch inst.Op {
		case prog.IBranch:
			if v, ok := ConstExpr(inst.Cond); ok {
				if v != 0 {
					succs[pc] = []int{inst.Target}
				} else {
					succs[pc] = []int{pc + 1}
				}
			} else {
				succs[pc] = []int{inst.Target, pc + 1}
			}
		case prog.IJmp:
			succs[pc] = []int{inst.Target}
		case prog.IAssume:
			if v, ok := ConstExpr(inst.Cond); ok && v == 0 {
				break
			}
			succs[pc] = []int{pc + 1}
		default:
			succs[pc] = []int{pc + 1}
		}
	}

	// before: forward may-analysis from the entry.
	before = make([]bool, n)
	seen := make([]bool, n+1)
	type node struct {
		pc  int
		acc bool
	}
	stack := []node{{0, false}}
	accIn := make([]bool, n+1)
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nd.pc >= n {
			continue
		}
		if seen[nd.pc] && (!nd.acc || accIn[nd.pc]) {
			continue
		}
		seen[nd.pc] = true
		if nd.acc {
			accIn[nd.pc] = true
			before[nd.pc] = true
		}
		out := nd.acc || isAccess(nd.pc)
		for _, s := range succs[nd.pc] {
			if s >= 0 && s <= n {
				stack = append(stack, node{s, out})
			}
		}
	}

	// after: backward may-analysis, iterated to fixpoint (cheap: programs
	// are tiny).
	after = make([]bool, n)
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			if !reachable[pc] || after[pc] {
				continue
			}
			for _, s := range succs[pc] {
				if s < n && (isAccess(s) || after[s]) {
					after[pc] = true
					changed = true
					break
				}
			}
		}
	}
	return before, after
}

// lintRacyPairs reports statically-possible data races from the
// footprint: cross-thread conflicting access pairs (same location, at
// least one write) with at least one plain side — the static
// over-approximation of core.CheckRaces' rc11 race definition. No
// happens-before is computed, so a correctly synchronized program (fences,
// release/acquire chains) still gets the finding; it is Info severity for
// exactly that reason, and most litmus tests race on purpose. CheckRaces
// is the dynamic confirmation.
func (r *Result) lintRacyPairs() []Finding {
	var out []Finding
	for l := 0; l < r.Foot.NumLocs; l++ {
		loc := eg.Loc(l)
		for _, pr := range r.Foot.RacyPairs(loc) {
			var kinds []string
			if pr.WW {
				kinds = append(kinds, "write/write")
			}
			if pr.WR {
				kinds = append(kinds, "write/read")
			}
			out = append(out, Finding{Sev: Info, Code: "racy-pair", Thread: pr.A, PC: -1,
				Msg: fmt.Sprintf("unsynchronized %s pair on %s between t%d and t%d may race (plain access, no static happens-before; `hmc -races` confirms dynamically)",
					strings.Join(kinds, " and "), r.P.LocName(loc), pr.A, pr.B)})
		}
	}
	return out
}

// lintSymmetryCandidates reports groups of threads whose code is
// identical up to a consistent renaming of locations and registers —
// near-symmetry that prog.SymmetryGroups (and hence Options.Symmetry,
// which requires exactly equal code) cannot exploit.
func (r *Result) lintSymmetryCandidates() []Finding {
	exactGroup := map[int]int{}
	for gi, g := range r.P.SymmetryGroups() {
		for _, t := range g {
			exactGroup[t] = gi + 1
		}
	}
	byCanon := map[string][]int{}
	for t := range r.P.Threads {
		if c, ok := canonThread(r.P, t); ok {
			byCanon[c] = append(byCanon[c], t)
		}
	}
	keys := make([]string, 0, len(byCanon))
	for k := range byCanon {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Finding
	for _, k := range keys {
		group := byCanon[k]
		if len(group) < 2 {
			continue
		}
		// Only report groups that add something beyond exact equality:
		// some pair of members not already in a common exact group.
		novel := false
		for i := 0; i < len(group) && !novel; i++ {
			for j := i + 1; j < len(group); j++ {
				gi, gj := exactGroup[group[i]], exactGroup[group[j]]
				if gi == 0 || gj == 0 || gi != gj {
					novel = true
					break
				}
			}
		}
		if !novel {
			continue
		}
		names := make([]string, len(group))
		for i, t := range group {
			names[i] = fmt.Sprintf("t%d", t)
		}
		out = append(out, Finding{Sev: Info, Code: "symmetry-candidate", Thread: group[0], PC: -1,
			Msg: fmt.Sprintf("threads %s are identical up to location/register renaming; exact symmetry reduction (Options.Symmetry) cannot exploit this", strings.Join(names, ", "))})
	}
	return out
}

// canonThread renders thread t's code with registers and (constant)
// location addresses renamed in first-use order. It fails when the thread
// has a register-dependent address, which defeats location renaming.
func canonThread(pr *prog.Program, t int) (string, bool) {
	regMap := map[prog.Reg]prog.Reg{}
	locMap := map[int64]int64{}
	reg := func(r prog.Reg) prog.Reg {
		if r < 0 {
			return r
		}
		if c, ok := regMap[r]; ok {
			return c
		}
		c := prog.Reg(len(regMap))
		regMap[r] = c
		return c
	}
	var renameExpr func(e *prog.Expr) *prog.Expr
	renameExpr = func(e *prog.Expr) *prog.Expr {
		if e == nil {
			return nil
		}
		c := *e
		if e.Op == prog.EReg {
			c.R = reg(e.R)
		}
		c.A = renameExpr(e.A)
		c.B = renameExpr(e.B)
		return &c
	}
	canonAddr := func(e *prog.Expr) (*prog.Expr, bool) {
		v, ok := ConstExpr(e)
		if !ok {
			return nil, false
		}
		if c, seen := locMap[v]; seen {
			return prog.Const(c), true
		}
		c := int64(len(locMap))
		locMap[v] = c
		return prog.Const(c), true
	}

	var sb strings.Builder
	for _, inst := range pr.Threads[t] {
		c := inst
		if c.Addr != nil {
			a, ok := canonAddr(c.Addr)
			if !ok {
				return "", false
			}
			c.Addr = a
		}
		c.Old = renameExpr(c.Old)
		c.New = renameExpr(c.New)
		c.Val = renameExpr(c.Val)
		c.Cond = renameExpr(c.Cond)
		switch c.Op {
		case prog.ILoad, prog.IMov, prog.ICAS, prog.IFAdd, prog.IXchg:
			c.Dst = reg(c.Dst)
		}
		if c.Op == prog.ICAS && c.Succ >= 0 {
			c.Succ = reg(c.Succ)
		}
		fmt.Fprintf(&sb, "%v|m%d\n", c, c.Mode)
	}
	return sb.String(), true
}
