// Package lockhold flags mutexes held across blocking calls in
// internal/service, which sits on the daemon's hot control paths: a lock
// held across a channel operation, an HTTP round-trip or an fsync turns
// one slow backend or one slow disk into a stalled job queue (every other goroutine piles up on the mutex), and
// under the job store's degraded mode it can deadlock the very path meant
// to keep the daemon live. The service's own style already follows the
// rule — snapshot under the lock, do I/O outside — and this analyzer
// keeps refactors from eroding it.
//
// The check is a lexical approximation, deliberately simple: within one
// function, after <expr>.Lock()/.RLock() on a sync.Mutex/RWMutex and
// before the matching Unlock (a deferred Unlock holds to function end),
// these constructs are reported:
//
//   - channel sends, receives, and selects without a default case;
//   - (*http.Client).Do and the net/http package-level request helpers;
//   - (*os.File).Sync — fsync under a lock serializes the world on the
//     disk;
//   - time.Sleep, (*sync.WaitGroup).Wait, net dials, os/exec waits.
//
// Function literals are not descended into: a goroutine or callback body
// does not run under the caller's lock. Branches are scanned with a copy
// of the held set, so "unlock early in a guard clause and return" stays
// clean. Sanctioned sites carry //hmc:lockhold(reason).
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"

	"hmc/tools/vet-hmc/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc: "no sync.Mutex/RWMutex held across a blocking call (channel op, " +
		"select without default, HTTP round-trip, fsync, sleep, WaitGroup.Wait) " +
		"in internal/service; sanctioned sites carry //hmc:lockhold(reason)",
	Match: analysis.HasSuffix("internal/service"),
	Run:   run,
}

func run(pass *analysis.Pass) error {
	analysis.Funcs(pass.Files, func(fn *ast.FuncDecl) {
		c := &checker{pass: pass}
		c.block(fn.Body.List, map[string]token.Pos{})
	})
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// block walks one statement list with the set of currently-held mutexes
// (textual lock expression -> Lock position). Nested blocks get a copy:
// an early Unlock inside a guard clause releases only along that path.
func (c *checker) block(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if key, locks, ok := c.lockOp(s.X); ok {
				if locks {
					held[key] = s.Pos()
				} else {
					delete(held, key)
				}
				continue
			}
			c.scan(s, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() pins the lock to function end; the defer
			// itself runs outside our linear order, so just keep the lock
			// held and do not scan the deferred call.
			if _, _, ok := c.lockOp(s.Call); ok {
				continue
			}
			// Other deferred calls run after the function body; skip.
		case *ast.IfStmt:
			c.scanExprs(held, s.Init, s.Cond)
			c.block(s.Body.List, copyHeld(held))
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					c.block(e.List, copyHeld(held))
				case *ast.IfStmt:
					c.block([]ast.Stmt{e}, copyHeld(held))
				}
			}
		case *ast.ForStmt:
			c.scanExprs(held, s.Init, s.Cond, s.Post)
			c.block(s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			c.scanExprs(held, s.X)
			c.block(s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			c.scanExprs(held, s.Init, s.Tag)
			for _, cc := range s.Body.List {
				if cl, ok := cc.(*ast.CaseClause); ok {
					c.block(cl.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			c.scanExprs(held, s.Init, s.Assign)
			for _, cc := range s.Body.List {
				if cl, ok := cc.(*ast.CaseClause); ok {
					c.block(cl.Body, copyHeld(held))
				}
			}
		case *ast.BlockStmt:
			c.block(s.List, copyHeld(held))
		case *ast.LabeledStmt:
			c.block([]ast.Stmt{s.Stmt}, held)
		default:
			c.scan(s, held)
		}
	}
}

func (c *checker) scanExprs(held map[string]token.Pos, nodes ...ast.Node) {
	for _, n := range nodes {
		if n != nil && !isNilNode(n) {
			c.scan(n, held)
		}
	}
}

func isNilNode(n ast.Node) bool {
	switch v := n.(type) {
	case ast.Expr:
		return v == nil
	case ast.Stmt:
		return v == nil
	}
	return n == nil
}

// scan reports blocking constructs inside one node while any lock is held.
func (c *checker) scan(node ast.Node, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its body runs under its own schedule, not this lock
		case *ast.SendStmt:
			c.report(n.Pos(), "channel send", held)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.report(n.Pos(), "channel receive", held)
			}
		case *ast.SelectStmt:
			if !hasDefault(n) {
				c.report(n.Pos(), "select without default", held)
			}
			return false // cases were either cleared above or are non-blocking
		case *ast.CallExpr:
			if what := c.blockingCall(n); what != "" {
				c.report(n.Pos(), what, held)
			}
		}
		return true
	})
}

func (c *checker) report(pos token.Pos, what string, held map[string]token.Pos) {
	if c.pass.Allowed("lockhold", pos) {
		return
	}
	for key, lockPos := range held {
		c.pass.Reportf(pos, "%s while holding %s (locked at %s): snapshot under the lock, block outside it, or annotate with //hmc:lockhold(reason)",
			what, key, c.pass.Fset.Position(lockPos))
	}
}

// lockOp recognizes <expr>.Lock/RLock/Unlock/RUnlock on a sync mutex,
// returning the textual mutex key and whether it acquires.
func (c *checker) lockOp(e ast.Expr) (key string, locks, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	tv, okT := c.pass.TypesInfo.Types[sel.X]
	if !okT {
		return "", false, false
	}
	if !analysis.IsNamed(tv.Type, "sync", "Mutex") && !analysis.IsNamed(tv.Type, "sync", "RWMutex") {
		return "", false, false
	}
	return types.ExprString(sel.X), locks, true
}

// blockingCall classifies calls that can park the goroutine indefinitely.
func (c *checker) blockingCall(call *ast.CallExpr) string {
	obj := analysis.CalleeObj(c.pass.TypesInfo, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	pkg, name := obj.Pkg().Path(), obj.Name()
	recv := receiverType(obj)
	switch {
	case pkg == "net/http" && name == "Do" && analysis.IsNamed(recv, "net/http", "Client"):
		return "HTTP round-trip (http.Client.Do)"
	case pkg == "net/http" && recv == nil &&
		(name == "Get" || name == "Post" || name == "Head" || name == "PostForm"):
		return "HTTP round-trip (http." + name + ")"
	case pkg == "os" && name == "Sync" && analysis.IsNamed(recv, "os", "File"):
		return "fsync (os.File.Sync)"
	case pkg == "time" && name == "Sleep":
		return "time.Sleep"
	case pkg == "sync" && name == "Wait" && analysis.IsNamed(recv, "sync", "WaitGroup"):
		return "WaitGroup.Wait"
	case pkg == "net" && (name == "Dial" || name == "DialTimeout" || name == "DialContext"):
		return "network dial"
	case pkg == "os/exec" && (name == "Run" || name == "Wait" || name == "Output" || name == "CombinedOutput"):
		return "subprocess wait (exec." + name + ")"
	}
	return ""
}

func receiverType(obj types.Object) types.Type {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if cl, ok := cc.(*ast.CommClause); ok && cl.Comm == nil {
			return true
		}
	}
	return false
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
