package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NonBlock enforces the event-loop latency contract: one stray fsync or
// channel wait on the loop stalls every protocol step behind it. A
// function is loop-bound (a "root") if it carries the looponly marker or
// is an engine-package entry point (Receive, Start, or a Handle*/
// Deliver*/On* method — the env.Node contract says Receive "must not
// block"). Roots, and everything they reach through the call graph, must
// not call blocking primitives:
//
//   - file and network I/O (os.File read/write/sync, net dial/accept/
//     conn read/write, io.Copy and friends, bufio flushes),
//   - time.Sleep, sync.WaitGroup.Wait, sync.Cond.Wait,
//   - channel sends, receives, range-over-channel, and select without a
//     default clause (select with default is the sanctioned non-blocking
//     poll).
//
// Reachability folds to a fixpoint within a package and crosses package
// boundaries as "blocks" facts. Goroutine bodies (`go` statements) and
// function literals are exempt: they do not run on the caller's loop.
//
// Sanctioned escape: livenet.Host.Do is the designed bridge that hands a
// thunk to the loop (its internal lock wait is the mechanism, not a
// violation) and exports no blocking fact.
//
// No package is exempt. The group-commit layer (commitpipe, storage) used
// to be, because its WAL fsync ran on the loop; the grouped fsync now runs
// on the host's syncer goroutine (livenet.Host.Offload takes the work as a
// function value, which is a hand-off, not a call), so the commit hot path
// exports no blocking fact for the plain reason that it does not block.
// The loop-side waits that remain carry reasoned reprolint:allow comments
// at the statement: Pipeline.Flush (it and Barrier must return with the log
// durable), the refused-offload fallback during shutdown, and the
// per-record WAL.Append of ungrouped mode.
var NonBlock = &Analyzer{
	Name: "nonblock",
	Doc:  "forbid blocking primitives in code reachable from the event loop",
	Run:  runNonBlock,
}

// nonBlockDeny maps MarkerKey -> the primitive's display name.
var nonBlockDeny = map[string]string{
	"time.Sleep":          "time.Sleep",
	"sync.WaitGroup.Wait": "sync.WaitGroup.Wait",
	"sync.Cond.Wait":      "sync.Cond.Wait",
	"os.File.Read":        "file I/O (os.File.Read)",
	"os.File.Write":       "file I/O (os.File.Write)",
	"os.File.ReadAt":      "file I/O (os.File.ReadAt)",
	"os.File.WriteAt":     "file I/O (os.File.WriteAt)",
	"os.File.Sync":        "fsync (os.File.Sync)",
	"os.Open":             "file I/O (os.Open)",
	"os.OpenFile":         "file I/O (os.OpenFile)",
	"os.Create":           "file I/O (os.Create)",
	"os.ReadFile":         "file I/O (os.ReadFile)",
	"os.WriteFile":        "file I/O (os.WriteFile)",
	"net.Dial":            "network I/O (net.Dial)",
	"net.DialTimeout":     "network I/O (net.DialTimeout)",
	"net.Listen":          "network I/O (net.Listen)",
	"net.Conn.Read":       "network I/O (net.Conn.Read)",
	"net.Conn.Write":      "network I/O (net.Conn.Write)",
	"net.Listener.Accept": "network I/O (net.Listener.Accept)",
	"net.TCPConn.Read":    "network I/O (net.TCPConn.Read)",
	"net.TCPConn.Write":   "network I/O (net.TCPConn.Write)",
	"io.Copy":             "I/O (io.Copy)",
	"io.CopyN":            "I/O (io.CopyN)",
	"io.ReadAll":          "I/O (io.ReadAll)",
	"io.ReadFull":         "I/O (io.ReadFull)",
	"bufio.Writer.Flush":  "flush-under-I/O (bufio.Writer.Flush)",
	"bufio.Reader.Read":   "I/O (bufio.Reader.Read)",
}

// nonBlockSanctioned names functions whose blocking is the design: the
// loop-handoff bridge. Keys are MarkerKeys with the module prefix
// stripped, so test fixtures match too.
var nonBlockSanctioned = map[string]bool{
	"livenet.Host.Do": true,
}

func isNonBlockSanctioned(key string) bool {
	return nonBlockSanctioned[strings.TrimPrefix(key, "repro/internal/")]
}

// nbSeed is one direct blocking operation in a function body.
type nbSeed struct {
	pos     token.Pos
	detail  string
	allowed bool // an allow comment covers it: excluded from summaries
}

// nbCall is one resolvable call site in a function body.
type nbCall struct {
	pos     token.Pos
	callee  *types.Func
	allowed bool // an allow comment covers it: excluded from summaries
}

// nbBlock is a function's folded blocking status.
type nbBlock struct {
	pos    token.Pos
	detail string
}

func runNonBlock(pass *Pass) error {
	if !localPackage(pass.Path) {
		return nil
	}
	// Local looponly markers: LoopOnly collects them into its own pass, so
	// re-collect here to know this package's roots.
	collectMarkers(pass)
	decls := funcDecls(pass)
	imported := pass.ImportedFactIndex("nonblock")

	seeds := make(map[*types.Func][]nbSeed)
	calls := make(map[*types.Func][]nbCall)
	for _, d := range decls {
		s, c := nonBlockScan(pass, d.decl.Body)
		seeds[d.fn], calls[d.fn] = s, c
	}

	// Fold to a fixpoint: a function blocks if a non-allowed direct seed
	// or any callee blocks.
	blocked := make(map[*types.Func]nbBlock)
	calleeBlock := func(fn *types.Func) (nbBlock, bool) {
		key := MarkerKey(fn)
		if isNonBlockSanctioned(key) {
			return nbBlock{}, false
		}
		if isLocalFunc(pass, fn) {
			b, ok := blocked[fn]
			return b, ok
		}
		for _, f := range imported[key] {
			if f.Attr == "blocks" {
				return nbBlock{detail: f.Detail}, true
			}
		}
		return nbBlock{}, false
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if _, done := blocked[d.fn]; done {
				continue
			}
			var found *nbBlock
			for _, s := range seeds[d.fn] {
				if !s.allowed {
					found = &nbBlock{s.pos, s.detail}
					break
				}
			}
			if found == nil {
				for _, c := range calls[d.fn] {
					if c.allowed {
						continue
					}
					if b, ok := calleeBlock(c.callee); ok {
						found = &nbBlock{c.pos, b.detail + " (via " + MarkerKey(c.callee) + ")"}
						break
					}
				}
			}
			if found != nil {
				blocked[d.fn] = *found
				changed = true
			}
		}
	}

	// Report in roots only: the loop-bound functions themselves. Direct
	// seeds report at the operation (Reportf records allow-suppressed ones
	// for the audit log); transitive blocks report at the call site.
	for _, d := range decls {
		why, isRoot := nonBlockRoot(pass, d)
		if !isRoot {
			continue
		}
		name := d.fn.Name()
		for _, s := range seeds[d.fn] {
			pass.Reportf(s.pos, "%s is loop-bound (%s) but may block: %s", name, why, s.detail)
		}
		for _, c := range calls[d.fn] {
			if b, ok := calleeBlock(c.callee); ok {
				pass.Reportf(c.pos, "%s is loop-bound (%s) but may block: %s", name, why, b.detail+" (via "+MarkerKey(c.callee)+")")
			}
		}
	}

	// Export blocking facts for dependents, skipping sanctioned escapes.
	for _, d := range decls {
		key := MarkerKey(d.fn)
		if isNonBlockSanctioned(key) {
			continue
		}
		if b, ok := blocked[d.fn]; ok {
			pass.ExportFact(FuncFact{Analyzer: "nonblock", Fn: key, Attr: "blocks", Detail: b.detail})
		}
	}
	return nil
}

// nonBlockRoot reports whether a declaration is loop-bound and why.
func nonBlockRoot(pass *Pass, d declFunc) (string, bool) {
	if pass.Marked(MarkerKey(d.fn)) {
		return "reprolint:looponly", true
	}
	if !IsEnginePackage(pass.Path) {
		return "", false
	}
	name := d.fn.Name()
	if d.decl.Recv == nil {
		return "", false
	}
	switch {
	case name == "Receive", name == "Start":
		return "engine entry point " + name, true
	case strings.HasPrefix(name, "Handle"), strings.HasPrefix(name, "Deliver"), strings.HasPrefix(name, "On"):
		return "engine entry point " + name, true
	}
	return "", false
}

// nonBlockScan finds a body's direct blocking operations and resolvable
// call sites. `go` statement subtrees and function literal bodies are
// skipped: they do not execute on the caller's loop.
func nonBlockScan(pass *Pass, body *ast.BlockStmt) ([]nbSeed, []nbCall) {
	var seeds []nbSeed
	var calls []nbCall
	addSeed := func(pos token.Pos, detail string) {
		_, allowed := pass.allowedAt("nonblock", pos)
		seeds = append(seeds, nbSeed{pos, detail, allowed})
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			addSeed(t.Pos(), "channel send")
		case *ast.UnaryExpr:
			if t.Op == token.ARROW {
				addSeed(t.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if tv := pass.TypesInfo.TypeOf(t.X); tv != nil {
				if _, isChan := tv.Underlying().(*types.Chan); isChan {
					addSeed(t.Pos(), "range over channel")
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range t.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				addSeed(t.Pos(), "select without default")
			}
			// Clause bodies run on the loop either way; the comm
			// operations themselves are the select's business.
			for _, cl := range t.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						ast.Inspect(s, visit)
					}
				}
			}
			return false
		case *ast.CallExpr:
			if fn := calleeFunc(pass, t); fn != nil {
				if prim, denied := nonBlockDeny[MarkerKey(fn)]; denied {
					addSeed(t.Pos(), prim)
				} else {
					_, allowed := pass.allowedAt("nonblock", t.Pos())
					calls = append(calls, nbCall{t.Pos(), fn, allowed})
				}
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	return seeds, calls
}
