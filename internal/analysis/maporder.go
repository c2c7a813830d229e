package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// MapOrder flags ranges over maps in engine packages whose loop body is
// iteration-order sensitive: Go randomizes map order, so any protocol
// decision derived from it diverges across replicas. Three body shapes are
// order sensitive:
//
//   - a call whose name looks like message emission (send, broadcast,
//     deliver, emit, publish, enqueue): the network observes the order;
//     or like a lock release: the lock table's grant callbacks resume
//     queued waiters in the order of release;
//   - an assignment or append to a slice variable declared outside the
//     loop: the accumulated order escapes the loop — unless the same
//     variable is sorted in the enclosing function (the collect-then-sort
//     idiom is exactly the prescribed fix);
//   - a send on a channel.
//
// Order-insensitive bodies (counting, per-key map writes, deletes) pass.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive iteration over maps in engine packages",
	Run:  runMapOrder,
}

// emitName matches function or method names that put a message on the wire,
// hand a delivery to the layer above, or release locks (whose grant
// callbacks run waiters in release order).
var emitName = regexp.MustCompile(`(?i)(send|broadcast|deliver|emit|publish|enqueue|release)`)

// sortCalls are the sort entry points that launder an accumulation's order.
var sortCalls = map[string]map[string]bool{
	"sort":   {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true, "Strings": true, "Ints": true, "Float64s": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

func runMapOrder(pass *Pass) error {
	if !IsEnginePackage(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		// Maintain the ancestor stack so each map range knows its enclosing
		// function, for the sorted-later check.
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if rng, ok := n.(*ast.RangeStmt); ok {
				if tv := pass.TypesInfo.TypeOf(rng.X); tv != nil {
					if _, isMap := tv.Underlying().(*types.Map); isMap {
						checkMapRange(pass, rng, enclosingFunc(stack))
					}
				}
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil
}

// checkMapRange inspects one map range's body for order-sensitive effects.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, encl ast.Node) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(t.Pos(), "channel send inside range over map: iteration order is nondeterministic")
		case *ast.CallExpr:
			if name := calleeName(t); name != "" && emitName.MatchString(name) {
				pass.Reportf(t.Pos(), "%s called inside range over map: message order is nondeterministic; iterate sorted keys instead", name)
				return false
			}
		case *ast.AssignStmt:
			if t.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range t.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Uses[id]
				if obj == nil {
					obj = pass.TypesInfo.Defs[id]
				}
				if obj == nil || !declaredOutside(obj, rng) {
					continue
				}
				if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
					continue
				}
				if encl != nil && sortedIn(pass, encl, obj) {
					continue
				}
				pass.Reportf(t.Pos(), "%s accumulates map iteration order and escapes the loop unsorted; sort it before it crosses a function boundary", id.Name)
			}
		}
		return true
	})
}

// enclosingFunc returns the innermost function declaration or literal on
// the ancestor stack, or nil at package level.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// declaredOutside reports whether obj's declaration lies outside the range
// statement, i.e. the variable survives the loop.
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// sortedIn reports whether the enclosing function sorts obj anywhere: the
// collect-then-sort idiom makes the accumulated order deterministic.
func sortedIn(pass *Pass, encl ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		names := sortCalls[pkgID.Name]
		if names == nil || !names[sel.Sel.Name] || len(call.Args) == 0 {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && pass.TypesInfo.Uses[arg] == obj {
			if !nonTotalLess(pass, call, obj) {
				found = true
			}
			return false
		}
		return true
	})
	return found
}

// nonTotalLess reports whether a sort call's comparator provably fails to
// define a total order over the slice's elements: a func-literal less over a
// multi-field struct element that compares exactly one of the fields. Such a
// sort leaves ties in their pre-sort (map iteration) order, so it must not
// launder an accumulation. Anything the analysis cannot see through — a
// named comparator, a method call like ID.Less, comparisons over two or
// more fields, non-struct elements — is assumed total.
func nonTotalLess(pass *Pass, call *ast.CallExpr, obj types.Object) bool {
	if len(call.Args) < 2 {
		return false
	}
	cmp, ok := call.Args[1].(*ast.FuncLit)
	if !ok {
		return false
	}
	slice, ok := obj.Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	st, ok := slice.Elem().Underlying().(*types.Struct)
	if !ok || st.NumFields() < 2 {
		return false
	}
	// Parameters of the comparator: index ints for sort.Slice, elements for
	// slices.SortFunc. Either way, a field access on an element shows up as
	// a SelectorExpr over a parameter identifier or over an index expression
	// into the sorted slice.
	params := make(map[types.Object]bool)
	for _, f := range cmp.Type.Params.List {
		for _, name := range f.Names {
			if def := pass.TypesInfo.Defs[name]; def != nil {
				params[def] = true
			}
		}
	}
	fields := make(map[string]bool)
	opaque := false
	ast.Inspect(cmp.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			// A call (method comparator, key extractor) may consult fields
			// the analysis cannot see; assume the order is total.
			opaque = true
			return false
		case *ast.SelectorExpr:
			switch x := t.X.(type) {
			case *ast.Ident:
				if params[pass.TypesInfo.Uses[x]] {
					fields[t.Sel.Name] = true
				}
			case *ast.IndexExpr:
				if id, ok := x.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					fields[t.Sel.Name] = true
				}
			}
		}
		return true
	})
	return !opaque && len(fields) == 1
}
