// Package lockio flags blocking I/O performed while a sync.Mutex or
// sync.RWMutex is held.
//
// One slow disk or one dead peer must never stall every goroutine
// queued on a hot lock: the controller, store, repo and gateway all
// follow the copy-under-lock, I/O-outside pattern, and the ROADMAP's
// "shard the hot locks" refactor depends on it staying that way.
// Blocking calls are HTTP and filesystem operations: anything in
// net/http, net, or os (minus a small pure allowlist: Getenv and
// friends), plus this repository's own network and disk surfaces —
// server.Client methods and repo.Repo methods.
//
// The analysis is function-local and lexical: a critical section
// spans from x.Lock() (or x.RLock()) to the next x.Unlock()
// (x.RUnlock()) on the same expression in source order, or to the end
// of the function when the unlock is deferred or absent. Function
// literals are analyzed as their own functions — when a closure body
// runs is unknowable, so calls inside it are not charged to the
// enclosing section, and locks it takes are charged to it alone.
package lockio

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the lockio analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc:  "mutex held across a blocking HTTP/disk call; copy under the lock, do I/O outside it",
	Run:  run,
}

// pureOS names os-package functions that never touch the filesystem
// or block; calling them under a lock is fine.
var pureOS = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "Expand": true,
	"ExpandEnv": true, "Getpid": true, "Getppid": true, "Getuid": true,
	"Geteuid": true, "Getgid": true, "Getegid": true, "Exit": true,
	"IsNotExist": true, "IsExist": true, "IsPermission": true, "IsTimeout": true,
	"IsPathSeparator": true, "NewSyscallError": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil, nil
}

// lockCall describes one Lock/Unlock-family call statement.
type lockCall struct {
	key      string // source text of the mutex expression
	read     bool   // RLock/RUnlock
	unlock   bool
	deferred bool
	pos      token.Pos
}

// interval is one lexical critical section.
type interval struct {
	key        string
	read       bool
	start, end token.Pos
}

// checkFunc analyzes one function body, not descending into nested
// function literals (they are checked as their own functions).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var calls []lockCall
	walkShallow(body, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if lc, ok := asLockCall(pass, s.X, false); ok {
				calls = append(calls, lc)
			}
		case *ast.DeferStmt:
			if lc, ok := asLockCall(pass, s.Call, true); ok {
				calls = append(calls, lc)
			}
		}
	})
	if len(calls) == 0 {
		return
	}

	// Pair locks with the next matching non-deferred unlock in source
	// order; a lock without one is held to the end of the function.
	var sections []interval
	type openLock struct {
		pos  token.Pos
		open bool
	}
	state := map[string]*openLock{}
	skey := func(lc lockCall) string {
		if lc.read {
			return "r:" + lc.key
		}
		return "w:" + lc.key
	}
	for _, lc := range calls {
		if lc.deferred && lc.unlock {
			continue // fires at return: the section runs to body end
		}
		k := skey(lc)
		st := state[k]
		if st == nil {
			st = &openLock{}
			state[k] = st
		}
		switch {
		case !lc.unlock:
			if st.open {
				// Re-lock while lexically open (branchy code); keep the
				// earlier start, stay open.
				continue
			}
			st.open, st.pos = true, lc.pos
		case st.open:
			sections = append(sections, interval{key: lc.key, read: lc.read, start: st.pos, end: lc.pos})
			st.open = false
		}
	}
	for k, st := range state {
		if st.open {
			read := k[0] == 'r'
			sections = append(sections, interval{key: k[2:], read: read, start: st.pos, end: body.End()})
		}
	}
	if len(sections) == 0 {
		return
	}

	walkShallow(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := calleeFunc(pass, call)
		if callee == nil {
			return
		}
		what := ioCall(callee)
		if what == "" {
			return
		}
		for _, sec := range sections {
			if call.Pos() > sec.start && call.Pos() < sec.end {
				pass.Reportf(call.Pos(),
					"mutex %s held across blocking call to %s; copy under the lock, do I/O after unlocking", sec.key, what)
				return
			}
		}
	})
}

// walkShallow visits every node in body except the bodies of nested
// function literals.
func walkShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// asLockCall recognizes x.Lock / x.RLock / x.Unlock / x.RUnlock where
// the method is sync's.
func asLockCall(pass *analysis.Pass, e ast.Expr, deferred bool) (lockCall, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return lockCall{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockCall{}, false
	}
	name := sel.Sel.Name
	var read, unlock bool
	switch name {
	case "Lock":
	case "RLock":
		read = true
	case "Unlock":
		unlock = true
	case "RUnlock":
		read, unlock = true, true
	default:
		return lockCall{}, false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return lockCall{}, false
	}
	return lockCall{
		key:      types.ExprString(sel.X),
		read:     read,
		unlock:   unlock,
		deferred: deferred,
		pos:      call.Pos(),
	}, true
}

// calleeFunc resolves a call's static callee, if any.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// ioCall classifies a callee as blocking I/O, returning a short
// description ("" when it is not).
func ioCall(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "net/http", "net":
		return pkg.Path() + "." + fn.Name()
	case "os":
		if pureOS[fn.Name()] {
			return ""
		}
		return "os." + fn.Name()
	case "repro/internal/transport":
		// Dial and Upgrade touch the socket directly; Stream methods
		// are classified by receiver below (Open only spawns the loop).
		if fn.Name() == "Dial" || fn.Name() == "Upgrade" {
			return "transport." + fn.Name() + " (network)"
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, okp := t.(*types.Pointer); okp {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	switch {
	case named.Obj().Pkg().Path() == "repro/internal/server" && named.Obj().Name() == "Client":
		if fn.Name() == "Base" { // accessor, no HTTP
			return ""
		}
		return "server.Client." + fn.Name() + " (HTTP)"
	case named.Obj().Pkg().Path() == "repro/internal/repo" && named.Obj().Name() == "Repo":
		if !diskRepoMethods[fn.Name()] { // index-only accessors are lock-cheap
			return ""
		}
		return "repo.Repo." + fn.Name() + " (disk)"
	case named.Obj().Pkg().Path() == "repro/internal/transport" && named.Obj().Name() == "Stream":
		if !blockingStreamMethods[fn.Name()] {
			return ""
		}
		return "transport.Stream." + fn.Name() + " (stream)"
	}
	return ""
}

// blockingStreamMethods names the transport.Stream methods that can
// block on the network or the send window; holding a lock across them
// stalls every goroutine queued behind it when a peer goes slow.
var blockingStreamMethods = map[string]bool{"Call": true, "Close": true}

// diskRepoMethods names the repo.Repo methods that perform file I/O;
// the rest only read the in-memory index.
var diskRepoMethods = map[string]bool{
	"Put": true, "PutDigest": true, "Get": true, "Delete": true,
	"Verify": true, "GC": true,
}
