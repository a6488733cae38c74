package lint

import (
	"go/ast"
	"go/types"
)

// determinism enforces the virtual-time determinism contract in a
// package whose package doc carries //async:deterministic: engine code
// replays bit-identically from a configuration, so it must never
// consult the wall clock, draw from process-global randomness, iterate
// a map in unspecified order, or spawn goroutines but at an annotated
// launch (//async:pool).
//
// Functions declared //async:measured are the waiver: their job is to
// observe real elapsed time (the live executor's measured step costs,
// the trace recorder's wall stamps, which are recorded and never
// consulted), so wall-clock reads are legal inside them. The waiver is
// scoped to the clock — measured code is still bound by the randomness,
// map-order, and goroutine-spawn rules. The map-order rule has no
// waiver: iterate a sorted key slice.
func (c *checker) determinism(p *Package) {
	if !packageMarked(p, annotDeterministic) {
		return
	}
	for _, f := range p.Files {
		pool := annotLines(c.fset, f, annotPool)
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			measured := isFunc && groupHas(fd.Doc, annotMeasured)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					c.forbiddenRef(p, n, measured)
				case *ast.GoStmt:
					// The waiver sits on the go statement's line or the one above.
					if line := c.fset.Position(n.Pos()).Line; !pool[line] && !pool[line-1] {
						c.reportf(n.Pos(), "bare go statement in deterministic engine code: "+
							"goroutines may only be spawned at an annotated launch (//async:pool)")
					}
				case *ast.RangeStmt:
					if t := p.Info.TypeOf(n.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							c.reportf(n.Pos(), "map iteration order is unspecified and feeds engine state: "+
								"iterate a sorted key slice")
						}
					}
				}
				return true
			})
		}
	}
}

// wallClockFuncs are the package time functions that read or depend on
// the wall clock (or real elapsed time). Pure constructors and
// formatting (time.Duration, time.Unix, Parse) stay legal: the engine
// is allowed to speak about time, just not to observe it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
}

// globalRandAllowed are the math/rand(/v2) package-level functions that
// do NOT touch the package-global generator. Everything else at package
// level draws from shared process state, whose sequence depends on every
// other draw in the binary — the opposite of replayable.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// forbiddenRef flags an identifier that resolves to a wall-clock time
// function or to global math/rand state, whether qualified (time.Now)
// or dot-imported (Now). measured suppresses the wall-clock check only:
// inside an //async:measured function, observing real time is the point.
func (c *checker) forbiddenRef(p *Package, id *ast.Ident, measured bool) {
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		// Methods (e.g. on a locally seeded *rand.Rand) don't touch
		// process-global state; the engine's own RNG discipline
		// (internal/stats) covers those.
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] && !measured {
			c.reportf(id.Pos(), "time.%s reads the wall clock: engine code runs on virtual time "+
				"(simtime) and must stay replayable", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !globalRandAllowed[fn.Name()] {
			c.reportf(id.Pos(), "%s.%s draws from process-global randomness: "+
				"use the run's seeded RNG (internal/stats) so draws replay", fn.Pkg().Name(), fn.Name())
		}
	}
}
