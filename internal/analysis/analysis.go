// Package analysis implements reprolint, a static-analysis suite that
// machine-checks the determinism and concurrency contracts the replication
// protocols depend on. The engines run as deterministic event-driven state
// machines against env.Runtime; every correctness claim (1SR certification,
// FIFO/causal/total delivery order) assumes replicas make identical
// decisions from identical inputs, and the production serving targets
// assume the event loop never blocks and the hot paths never allocate.
// Seven analyzers enforce that:
//
//   - detrand: engine packages must not read wall-clock time, the global
//     math/rand source, or the process environment — all nondeterministic
//     inputs; use env.Runtime's Now/SetTimer/Rand instead.
//   - maporder: a range over a map has nondeterministic iteration order;
//     in engine packages the loop body must not emit messages, accumulate
//     into an escaping slice, or send on a channel unless the result is
//     sorted before it can influence protocol decisions.
//   - looponly: methods marked `// reprolint:looponly` (env.Runtime's
//     timers/rand, livenet's restricted set) are serialized by the event
//     loop and must not be called from go statements or functions only
//     reachable from goroutines.
//   - pipeonly: durable installs route through internal/commitpipe; direct
//     WAL.Append or Store.Apply/ApplyBatch calls outside the pipeline (and
//     storage's own recovery paths) bypass group commit, ack-after-fsync,
//     and the apply traces.
//   - lockorder: per-function held-lock sets (sync.Mutex/RWMutex fields and
//     the lockmgr grant table) propagate acquisition edges as facts; cycles
//     in the global lock-order graph and same-instance double acquisition
//     on one path are static deadlocks.
//   - nonblock: functions reachable from looponly-marked code or engine
//     Handle*/Deliver*/Receive entry points must not call blocking
//     primitives (file/network I/O, time.Sleep, WaitGroup.Wait, channel
//     ops); livenet.Host.Do and the commitpipe/storage group-commit layer
//     are the sanctioned escapes.
//   - noalloc: functions marked `// reprolint:noalloc` (trace-ring record
//     path, commitpipe per-txn enqueue) must not allocate: heap-escaping
//     composites, capturing closures, fmt/sort calls, make/new, and
//     unbounded appends are flagged, transitively through calls.
//
// A finding can be suppressed with a trailing comment, or a comment on any
// line of the flagged statement or the line immediately above it, of the
// form
//
//	//reprolint:allow <analyzer>[,<analyzer>...] <reason>
//
// naming one or more analyzers and giving a non-empty reason. Suppressed
// findings are retained (with their reasons) and surface in the findings
// log cmd/reprolint can emit, so escapes stay auditable.
//
// The framework is a deliberately small subset of
// golang.org/x/tools/go/analysis (which is not vendored here): an Analyzer
// holds a Run function over a Pass, the Pass carries the type-checked
// package, imported facts, and reports Diagnostics, and cmd/reprolint
// drives it under `go vet -vettool`. Facts — looponly markers and
// per-function summaries (lock acquisitions, blocking calls, allocation
// sites) — travel between packages through gob-encoded .vetx files.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
}

// All returns the full reprolint suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{DetRand, MapOrder, LoopOnly, PipeOnly, LockOrder, NonBlock, NoAlloc}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Suppressed is a finding an allow comment silenced, kept for audit.
type Suppressed struct {
	Diagnostic
	Reason string
}

// FuncFact is one per-function summary attribute exported across package
// boundaries: which locks a function acquires, whether it blocks, whether
// it allocates. Facts are plain strings so the gob payload stays stable.
type FuncFact struct {
	// Analyzer names the producing analyzer.
	Analyzer string
	// Fn is the function's MarkerKey.
	Fn string
	// Attr is the attribute ("acquires", "acquires-self", "edge", "blocks",
	// "allocs").
	Attr string
	// Detail carries the attribute payload (a lock ID, an edge "a->b", a
	// blocking primitive with its via-chain, an allocation description).
	Detail string
}

// Facts is everything one package exports to its dependents.
type Facts struct {
	// Markers holds looponly marker keys (see MarkerKey).
	Markers map[string]bool
	// Funcs holds per-function summary facts.
	Funcs []FuncFact
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the import path under analysis with any test-variant suffix
	// (" [pkg.test]") stripped; engine-package gating keys off it.
	Path string
	// ImportedMarkers holds looponly marker keys exported by the package's
	// dependencies (see MarkerKey).
	ImportedMarkers map[string]bool
	// ImportedFuncs holds per-function summary facts from dependencies.
	ImportedFuncs []FuncFact

	exported      map[string]bool
	exportedFF    []FuncFact
	exportedFFSet map[FuncFact]bool
	diags         []Diagnostic
	suppressed    []Suppressed
	allow         map[suppressKey]string
}

type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// NewPass assembles a pass, pre-indexing allow comments. imported may be
// nil when the package has no dependency facts.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, path string, imported *Facts) *Pass {
	p := &Pass{
		Analyzer:      a,
		Fset:          fset,
		Files:         files,
		Pkg:           pkg,
		TypesInfo:     info,
		Path:          path,
		exported:      make(map[string]bool),
		exportedFFSet: make(map[FuncFact]bool),
		allow:         make(map[suppressKey]string),
	}
	if imported != nil {
		p.ImportedMarkers = imported.Markers
		p.ImportedFuncs = imported.Funcs
	}
	if p.ImportedMarkers == nil {
		p.ImportedMarkers = map[string]bool{}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, reason, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range names {
					p.allow[suppressKey{pos.Filename, pos.Line, name}] = reason
				}
			}
		}
	}
	return p
}

// parseAllow decodes a `//reprolint:allow <analyzer>[,<analyzer>...]
// <reason>` comment. The reason is mandatory: a suppression with no
// justification is not honored.
func parseAllow(text string) (analyzers []string, reason string, ok bool) {
	rest, found := strings.CutPrefix(strings.TrimSpace(text), "//reprolint:allow")
	if !found {
		return nil, "", false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil, "", false
	}
	for _, name := range strings.Split(fields[0], ",") {
		if name == "" {
			return nil, "", false
		}
		analyzers = append(analyzers, name)
	}
	return analyzers, strings.Join(fields[1:], " "), true
}

// stmtSpan returns the line range an allow comment must cover to suppress
// a finding at pos: the deepest statement containing pos, clipped at the
// opening brace for control statements so a comment inside an if/for body
// cannot suppress a header finding. Falls back to the position's own line.
func (p *Pass) stmtSpan(pos token.Pos) (startLine, endLine int) {
	at := p.Fset.Position(pos)
	startLine, endLine = at.Line, at.Line
	var deepest ast.Stmt
	for _, f := range p.Files {
		if f.Pos() > pos || f.End() < pos {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || pos < n.Pos() || pos >= n.End() {
				return false
			}
			if s, ok := n.(ast.Stmt); ok {
				if _, isBlock := s.(*ast.BlockStmt); !isBlock {
					deepest = s
				}
			}
			return true
		})
	}
	if deepest == nil {
		return startLine, endLine
	}
	end := deepest.End()
	switch s := deepest.(type) {
	case *ast.IfStmt:
		end = s.Body.Lbrace
	case *ast.ForStmt:
		end = s.Body.Lbrace
	case *ast.RangeStmt:
		end = s.Body.Lbrace
	case *ast.SwitchStmt:
		end = s.Body.Lbrace
	case *ast.TypeSwitchStmt:
		end = s.Body.Lbrace
	case *ast.SelectStmt:
		end = s.Body.Lbrace
	case *ast.CaseClause:
		end = s.Colon
	case *ast.CommClause:
		end = s.Colon
	}
	if end < pos {
		end = pos
	}
	return p.Fset.Position(deepest.Pos()).Line, p.Fset.Position(end).Line
}

// allowedAt returns the suppression reason covering (analyzer, pos), if
// any: an allow comment on any line of the containing statement or on the
// line immediately above it.
func (p *Pass) allowedAt(analyzer string, pos token.Pos) (string, bool) {
	file := p.Fset.Position(pos).Filename
	start, end := p.stmtSpan(pos)
	for line := start - 1; line <= end; line++ {
		if reason, ok := p.allow[suppressKey{file, line, analyzer}]; ok {
			return reason, true
		}
	}
	return "", false
}

// Reportf records a finding unless an allow comment covering the flagged
// statement suppresses it; suppressed findings are retained with their
// reasons for the audit log.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	d := Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)}
	if reason, ok := p.allowedAt(p.Analyzer.Name, pos); ok {
		p.suppressed = append(p.suppressed, Suppressed{Diagnostic: d, Reason: reason})
		return
	}
	p.diags = append(p.diags, d)
}

// Diagnostics returns the findings reported so far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// SuppressedDiagnostics returns the findings allow comments silenced.
func (p *Pass) SuppressedDiagnostics() []Suppressed { return p.suppressed }

// ExportMarker records a looponly marker for downstream packages.
func (p *Pass) ExportMarker(key string) { p.exported[key] = true }

// ExportedMarkers returns this pass's markers joined with everything
// imported, so facts propagate transitively through the build graph.
func (p *Pass) ExportedMarkers() []string {
	out := make([]string, 0, len(p.exported)+len(p.ImportedMarkers))
	for k := range p.exported {
		out = append(out, k)
	}
	for k := range p.ImportedMarkers {
		if !p.exported[k] {
			out = append(out, k)
		}
	}
	return out
}

// Marked reports whether key carries a looponly marker, either from this
// package or from a dependency.
func (p *Pass) Marked(key string) bool {
	return p.exported[key] || p.ImportedMarkers[key]
}

// ExportFact records a per-function summary fact for downstream packages,
// deduplicating exact repeats.
func (p *Pass) ExportFact(f FuncFact) {
	if p.exportedFFSet[f] {
		return
	}
	p.exportedFFSet[f] = true
	p.exportedFF = append(p.exportedFF, f)
}

// ExportedFuncFacts returns this pass's function facts joined with
// everything imported, so summaries propagate transitively.
func (p *Pass) ExportedFuncFacts() []FuncFact {
	out := make([]FuncFact, 0, len(p.exportedFF)+len(p.ImportedFuncs))
	out = append(out, p.exportedFF...)
	for _, f := range p.ImportedFuncs {
		if !p.exportedFFSet[f] {
			out = append(out, f)
		}
	}
	return out
}

// ImportedFactIndex groups a dependency analyzer's facts by function key.
func (p *Pass) ImportedFactIndex(analyzer string) map[string][]FuncFact {
	out := make(map[string][]FuncFact)
	for _, f := range p.ImportedFuncs {
		if f.Analyzer == analyzer {
			out[f.Fn] = append(out[f.Fn], f)
		}
	}
	return out
}

// IsTestFile reports whether the file is a _test.go file. The determinism
// contracts bind production engine code; tests drive wall clocks and seeds
// freely.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// enginePackages names the packages whose code must be a deterministic
// state machine: everything that computes protocol decisions.
var enginePackages = map[string]bool{
	"core":       true,
	"commitpipe": true,
	"broadcast":  true,
	"membership": true,
	"lockmgr":    true,
	"sgraph":     true,
	"storage":    true,
	"message":    true,
	"vclock":     true,
	"sim":        true,
}

// IsEnginePackage reports whether the import path denotes one of the
// deterministic engine packages. Bare names are accepted so analyzer tests
// can synthesize packages without the module prefix.
func IsEnginePackage(path string) bool {
	if rest, ok := strings.CutPrefix(path, "repro/internal/"); ok {
		return enginePackages[rest]
	}
	return enginePackages[path]
}

// stdlibSingle lists single-segment standard-library import paths, so the
// summary analyzers can tell a bare-named test fixture ("core") from a
// stdlib dependency go vet also feeds through the tool ("sync").
var stdlibSingle = map[string]bool{
	"arena": true, "bufio": true, "bytes": true, "cmp": true,
	"context": true, "crypto": true, "embed": true, "encoding": true,
	"errors": true, "expvar": true, "flag": true, "fmt": true,
	"hash": true, "html": true, "image": true, "io": true, "iter": true,
	"log": true, "maps": true, "math": true, "mime": true, "net": true,
	"os": true, "path": true, "plugin": true, "reflect": true,
	"regexp": true, "runtime": true, "slices": true, "sort": true,
	"strconv": true, "strings": true, "structs": true, "sync": true,
	"syscall": true, "testing": true, "time": true, "unicode": true,
	"unique": true, "unsafe": true, "weak": true,
}

// localPackage reports whether path is this module's code (or a bare-named
// analyzer test fixture) rather than a standard-library or third-party
// dependency. go vet runs the vettool over the whole dependency graph with
// VetxOnly set; the summary analyzers (lockorder, nonblock, noalloc) skip
// foreign packages so a run does not fixpoint over the standard library.
func localPackage(path string) bool {
	if path == "repro" || strings.HasPrefix(path, "repro/") {
		return true
	}
	if strings.ContainsAny(path, "/.") {
		return false
	}
	return !stdlibSingle[path]
}

// TrimTestVariant strips go vet's test-variant suffix from an import path:
// "repro/internal/core [repro/internal/core.test]" -> "repro/internal/core".
func TrimTestVariant(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// MarkerKey names a function or method for looponly marker matching:
// "pkgpath.Func" for package functions, "pkgpath.Type.Method" for methods
// (including interface methods), with any pointer receiver stripped.
func MarkerKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			// Universe-scope receivers (error.Error) have no package.
			if fn.Pkg() == nil {
				return named.Obj().Name() + "." + fn.Name()
			}
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		if iface, isIface := t.(*types.Interface); isIface {
			_ = iface // unnamed interface receiver: fall through to pkg.Func form
		}
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// CheckAllowComments reports reprolint:allow comments that are malformed
// (no analyzer name or no reason) or name an unknown analyzer, so a typo
// does not silently fail to suppress. The driver runs it once per package.
func CheckAllowComments(fset *token.FileSet, files []*ast.File) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, found := strings.CutPrefix(strings.TrimSpace(c.Text), "//reprolint:allow")
				if !found {
					continue
				}
				names, _, ok := parseAllow(c.Text)
				if !ok {
					diags = append(diags, Diagnostic{Pos: c.Pos(), Analyzer: "reprolint",
						Message: fmt.Sprintf("malformed reprolint:allow comment %q: want //reprolint:allow <analyzer>[,<analyzer>] <reason>", strings.TrimSpace(rest))})
					continue
				}
				for _, name := range names {
					if !known[name] {
						diags = append(diags, Diagnostic{Pos: c.Pos(), Analyzer: "reprolint",
							Message: fmt.Sprintf("reprolint:allow names unknown analyzer %q", name)})
					}
				}
			}
		}
	}
	return diags
}
