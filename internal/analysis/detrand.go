package analysis

import (
	"go/ast"
	"go/types"
)

// DetRand forbids nondeterministic inputs in engine packages: wall-clock
// time, the global math/rand source, and the process environment. Engine
// code must take time from env.Runtime.Now/SetTimer and randomness from
// env.Runtime.Rand so the simulator fully controls every input.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid wall-clock time, global math/rand, and os.Getenv in engine packages",
	Run:  runDetRand,
}

// detRandDeny maps package path -> function name -> replacement hint.
// Only package-level functions are denied: rand.New over an explicit seeded
// source is deterministic and stays legal, as do time.Duration arithmetic
// and constants.
var detRandDeny = map[string]map[string]string{
	"time": {
		"Now":       "env.Runtime.Now",
		"Since":     "env.Runtime.Now",
		"Until":     "env.Runtime.Now",
		"Sleep":     "env.Runtime.SetTimer",
		"After":     "env.Runtime.SetTimer",
		"Tick":      "env.Runtime.SetTimer",
		"NewTimer":  "env.Runtime.SetTimer",
		"NewTicker": "env.Runtime.SetTimer",
		"AfterFunc": "env.Runtime.SetTimer",
	},
	"math/rand": {
		"Int":         "env.Runtime.Rand",
		"Intn":        "env.Runtime.Rand",
		"Int31":       "env.Runtime.Rand",
		"Int31n":      "env.Runtime.Rand",
		"Int63":       "env.Runtime.Rand",
		"Int63n":      "env.Runtime.Rand",
		"Uint32":      "env.Runtime.Rand",
		"Uint64":      "env.Runtime.Rand",
		"Float32":     "env.Runtime.Rand",
		"Float64":     "env.Runtime.Rand",
		"ExpFloat64":  "env.Runtime.Rand",
		"NormFloat64": "env.Runtime.Rand",
		"Perm":        "env.Runtime.Rand",
		"Shuffle":     "env.Runtime.Rand",
		"Seed":        "env.Runtime.Rand",
		"Read":        "env.Runtime.Rand",
	},
	"os": {
		"Getenv":    "explicit configuration",
		"LookupEnv": "explicit configuration",
		"Environ":   "explicit configuration",
	},
}

func runDetRand(pass *Pass) error {
	if !IsEnginePackage(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
				return true // method (e.g. rand.Rand.Intn on an env source) is fine
			}
			deny, ok := detRandDeny[fn.Pkg().Path()]
			if !ok {
				return true
			}
			hint, ok := deny[fn.Name()]
			if !ok {
				return true
			}
			pass.Reportf(sel.Pos(), "nondeterministic %s.%s in engine package %s: use %s",
				fn.Pkg().Path(), fn.Name(), pass.Path, hint)
			return true
		})
	}
	return nil
}
