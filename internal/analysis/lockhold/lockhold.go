// Package lockhold flags blocking operations performed while a mutex
// may be held: channel receives (including range-over-channel),
// WaitGroup waits, cond.Wait on a cond that does not own the single
// held mutex, decider calls (Decide), HTTP round-trips, time.Sleep, and
// snapshot writes (WriteSnapshot on a JobStore, which writes and fsyncs
// the whole job history). A queue or ledger mutex held across such a
// call stalls every other goroutine contending for it — the latency bug
// PR 7's decide-then-check fix removed, now machine-checked.
//
// Held-lock state is path-sensitive (may-analysis on the dataflow
// driver): a lock released on one branch but not another still counts
// as held at the join. `defer mu.Unlock()` keeps the lock held for the
// rest of the body, by design. A method whose name ends in "Locked"
// starts with its receiver's mutex held: by the convention lockcheck
// also follows, its callers hold that lock.
//
// cond.Wait is accepted only when the single held mutex belongs to the
// same root value as the cond (the `l.mu` / `l.cond` pairing); anything
// else — a second mutex, or a foreign cond — is reported. Channel sends
// are deliberately NOT flagged: bounded-capacity sends under a lock are
// an accepted idiom in the queue (capacity is reserved before the
// send).
package lockhold

import (
	"go/ast"
	"go/types"
	"strings"

	"dart/internal/analysis"
	"dart/internal/analysis/cfg"
	"dart/internal/analysis/dataflow"
)

// Analyzer is the lockhold pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "no mutex may be held across a blocking call (channel receive, foreign cond.Wait, decider/HTTP calls, sleeps)",
	Run:  run,
}

const held = 1

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		nonBlocking := nonBlockingComms(f)
		for _, fn := range cfg.Functions(f) {
			checkFunc(pass, fn, nonBlocking)
		}
	}
	return nil
}

// nonBlockingComms collects comm-clause statements of selects that have
// a default clause: those receives never block.
func nonBlockingComms(f *ast.File) map[ast.Stmt]bool {
	out := map[ast.Stmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
				out[cc.Comm] = true
			}
		}
		return true
	})
	return out
}

type checker struct {
	pass *analysis.Pass
	// owners maps each held-mutex key to the root value it hangs off
	// (q.mu -> q); display renders the lock for diagnostics.
	owners  map[types.Object]types.Object
	display map[types.Object]string
	// nonBlocking marks select-with-default comm statements.
	nonBlocking map[ast.Stmt]bool
}

func checkFunc(pass *analysis.Pass, fn cfg.FuncInfo, nonBlocking map[ast.Stmt]bool) {
	c := &checker{
		pass:        pass,
		owners:      map[types.Object]types.Object{},
		display:     map[types.Object]string{},
		nonBlocking: nonBlocking,
	}
	g := cfg.New(fn.Body)

	entry := dataflow.Facts{}
	if key, root, name := lockedHelperMutex(pass, fn.Decl); key != nil {
		entry[key] = held
		c.owners[key] = root
		c.display[key] = name
	}
	prob := dataflow.FactsProblem(entry, true) // may-join: held dominates
	prob.Transfer = c.transfer
	res := dataflow.Forward(g, prob)

	reported := map[ast.Node]bool{}
	dataflow.ForEachNode(g, prob, res, func(n ast.Node, before dataflow.Facts) {
		c.checkBlocking(n, before, reported)
	})
}

// lockedHelperMutex returns the receiver's mutex field of a *Locked
// method, keyed as mutexKey keys recv.mu, or nil for any other function.
func lockedHelperMutex(pass *analysis.Pass, fd *ast.FuncDecl) (key, root types.Object, name string) {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 ||
		!strings.HasSuffix(fd.Name.Name, "Locked") {
		return nil, nil, ""
	}
	recv := fd.Recv.List[0].Names[0]
	obj := pass.TypesInfo.Defs[recv]
	if obj == nil {
		return nil, nil, ""
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil, nil, ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); !f.Embedded() && isSyncMutex(f.Type()) {
			return f, obj, recv.Name + "." + f.Name()
		}
	}
	return nil, nil, ""
}

// mutexKey resolves the receiver of a Lock/Unlock-family call to a
// stable object key plus its root owner. For q.mu.Lock() the key is the
// mu field object; for an embedded mutex (e.Lock()) or a local mutex
// the key is the value's own object.
func (c *checker) mutexKey(recv ast.Expr) (key, root types.Object, name string) {
	info := c.pass.TypesInfo
	switch x := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		field := info.Uses[x.Sel]
		if field == nil || !isSyncMutex(field.Type()) {
			return nil, nil, ""
		}
		return field, dataflow.RootIdentObject(info, x.X), render(x)
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			return nil, nil, ""
		}
		if isSyncMutex(obj.Type()) || hasEmbeddedMutex(obj.Type()) {
			return obj, obj, x.Name
		}
	}
	return nil, nil, ""
}

func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

func hasEmbeddedMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() && isSyncMutex(f.Type()) {
			return true
		}
	}
	return false
}

func isNamed(t types.Type, pkg, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil {
		return false
	}
	if pkg == "" {
		return named.Obj().Name() == name
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkg && named.Obj().Name() == name
}

func render(sel *ast.SelectorExpr) string {
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}

// transfer applies Lock/Unlock effects. Defer statements are skipped:
// a deferred unlock releases at return, not here.
func (c *checker) transfer(n ast.Node, in dataflow.Facts) dataflow.Facts {
	if _, ok := n.(*ast.DeferStmt); ok {
		return in
	}
	dataflow.Calls(n, func(call *ast.CallExpr) {
		recv := dataflow.Receiver(call)
		if recv == nil {
			return
		}
		switch dataflow.CalleeName(call) {
		case "Lock", "RLock":
			if key, root, name := c.mutexKey(recv); key != nil {
				in[key] = held
				c.owners[key] = root
				c.display[key] = name
			}
		case "Unlock", "RUnlock":
			if key, _, _ := c.mutexKey(recv); key != nil {
				delete(in, key)
			}
		case "TryLock", "TryRLock":
			// Result-dependent; treated as may-held.
			if key, root, name := c.mutexKey(recv); key != nil {
				in[key] = held
				c.owners[key] = root
				c.display[key] = name
			}
		}
	})
	return in
}

// heldNames renders the held set for diagnostics, deterministically.
func (c *checker) heldNames(before dataflow.Facts) string {
	names := ""
	for key, v := range before {
		if v != held {
			continue
		}
		if names != "" {
			names += ", "
		}
		names += c.display[key]
	}
	return names
}

func (c *checker) anyHeld(before dataflow.Facts) bool {
	for _, v := range before {
		if v == held {
			return true
		}
	}
	return false
}

// checkBlocking reports blocking operations in n given the may-held set.
func (c *checker) checkBlocking(n ast.Node, before dataflow.Facts, reported map[ast.Node]bool) {
	if !c.anyHeld(before) {
		return
	}
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	if stmt, ok := n.(ast.Stmt); ok && c.nonBlocking[stmt] {
		return
	}
	report := func(at ast.Node, what string) {
		if reported[at] {
			return
		}
		reported[at] = true
		c.pass.Reportf(at.Pos(), "%s while holding %s (release the lock before blocking)", what, c.heldNames(before))
	}

	if rs, ok := n.(*ast.RangeStmt); ok {
		if t := c.pass.TypeOf(rs.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				report(rs, "blocking range over channel")
			}
		}
		return
	}

	dataflow.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.UnaryExpr:
			if m.Op.String() == "<-" {
				report(m, "blocking channel receive")
			}
		case *ast.CallExpr:
			c.checkBlockingCall(m, before, report)
		}
		return true
	})
}

func (c *checker) checkBlockingCall(call *ast.CallExpr, before dataflow.Facts, report func(ast.Node, string)) {
	name := dataflow.CalleeName(call)
	recv := dataflow.Receiver(call)
	recvType := func() types.Type {
		if recv == nil {
			return nil
		}
		return c.pass.TypeOf(recv)
	}

	switch name {
	case "Wait":
		t := recvType()
		switch {
		case isNamed(t, "sync", "WaitGroup"):
			report(call, "WaitGroup.Wait")
		case isNamed(t, "sync", "Cond"):
			if !c.condOwnsHeld(recv, before) {
				report(call, "cond.Wait with an unrelated mutex held")
			}
		}
	case "Decide":
		report(call, "blocking decider call")
	case "Do", "Get", "Post", "PostForm", "Head":
		t := recvType()
		if isNamed(t, "net/http", "Client") || isHTTPPkg(c.pass, recv) {
			report(call, "HTTP round-trip")
		}
	case "Sleep":
		if isPkg(c.pass, recv, "time") {
			report(call, "time.Sleep")
		}
	case "WriteSnapshot":
		// Any type named JobStore: the service's store interface, or a
		// fixture's copy of it.
		if isNamed(recvType(), "", "JobStore") {
			report(call, "JobStore.WriteSnapshot")
		}
	}
}

// condOwnsHeld reports whether the held set is exactly the one mutex
// rooted at the same value as the cond — the legal cond.Wait shape.
func (c *checker) condOwnsHeld(condRecv ast.Expr, before dataflow.Facts) bool {
	condRoot := dataflow.RootIdentObject(c.pass.TypesInfo, condRecv)
	if condRoot == nil {
		return false
	}
	n := 0
	ownerOK := true
	for key, v := range before {
		if v != held {
			continue
		}
		n++
		if c.owners[key] != condRoot {
			ownerOK = false
		}
	}
	return n == 1 && ownerOK
}

func isPkg(pass *analysis.Pass, recv ast.Expr, path string) bool {
	id, ok := ast.Unparen(recv).(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkgName.Imported().Path() == path
}

func isHTTPPkg(pass *analysis.Pass, recv ast.Expr) bool {
	return isPkg(pass, recv, "net/http")
}
