package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerTimeNow keeps wall-clock time and process-global randomness out
// of the deterministic packages (simulator, costmodel, ghn, tensor): replayable
// simulations and bit-reproducible training must draw all entropy from an
// explicitly seeded source (tensor.RNG / rand.New(rand.NewSource(seed)))
// and take timestamps, if any, from an injected clock.
var AnalyzerTimeNow = &Analyzer{
	ID:       "timenow",
	Doc:      "deterministic packages must not call time.Now or the global math/rand functions",
	Severity: SevError,
	Match:    deterministicPkg,
	Run:      runTimeNow,
}

// deterministicPkg matches the packages whose outputs must be replayable.
func deterministicPkg(pkgPath string) bool {
	switch pkgPath[strings.LastIndex(pkgPath, "/")+1:] {
	case "simulator", "costmodel", "ghn", "tensor":
		return true
	}
	return false
}

// seededConstructors are the math/rand functions that build an explicitly
// seeded source; everything else package-level in math/rand draws from the
// process-global RNG.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runTimeNow(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" {
					pass.Reportf(id.Pos(), "time.Now in a deterministic package; inject a clock instead")
				}
			case "math/rand", "math/rand/v2":
				// Package-level functions only: methods on *rand.Rand have
				// a receiver and are the sanctioned seeded path.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !seededConstructors[fn.Name()] {
					pass.Reportf(id.Pos(), "global rand.%s in a deterministic package; use a seeded *rand.Rand (tensor.RNG)", fn.Name())
				}
			}
			return true
		})
	}
}
