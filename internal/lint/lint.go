// Package lint checks the contracts of the asynchronous runtime that
// the Go type system cannot state. Every claim the reproduction makes —
// async beats eager, parallel-executor parity with the DES, bit-exact
// crash replay — rests on deterministic simulated runs; the determinism
// rule keeps wall clock, global randomness, map order and stray
// goroutines out of the engine, and the sched-only rule keeps
// scheduling bookkeeping on the scheduling goroutine. What the types
// already say (typed atomics reachable only through their methods,
// adapt.Policy sealed inside its package) is not re-checked here.
//
// The contracts are declared in the code itself with //async:
// annotations (comment directives, in the style of //go:build):
//
//	//async:deterministic
//	    Package marker, written in a file's package doc comment. Opts
//	    the whole package into the determinism rule: no wall-clock
//	    reads, no global math/rand, no bare go statements, no
//	    map-order-dependent iteration.
//
//	//async:sched-only
//	    Function, method, or interface-method annotation: the function
//	    may only run on the engine's scheduling goroutine. The
//	    sched-only rule verifies every reference to it, in any package,
//	    comes from another sched-only function or from a declared
//	    scheduling-loop root.
//
//	//async:sched-root
//	    Function annotation: the function is a scheduling-loop entry
//	    point (it runs on, or establishes, the scheduling goroutine) and
//	    may therefore call sched-only functions freely.
//
//	//async:measured
//	    Function annotation: the function observes real elapsed time
//	    (the live executor's tasks and timers, the trace recorder's wall
//	    stamps), so the determinism rule's clock check is waived inside
//	    it, and its body may call sched-only code (serialized under the
//	    engine mutex).
//
//	//async:pool
//	    Statement annotation (same line or the line above a go
//	    statement): waives the determinism rule's bare-go check. The
//	    runtime's one such launch is the live executor's timer; every
//	    other worker goroutine, the synchronous task loop's helpers
//	    too, is an internal/workpool worker.
//
// Any other //async: line is reported, so a misspelt directive cannot
// drop its contract unnoticed.
//
// The rules read the packages Load type-checks with the standard
// library alone; the repository's TestAsyncContracts runs them over
// the whole module, so a violation fails go test ./... .
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one package of this module, parsed and type-checked from
// its non-test source files.
type Package struct {
	Files []*ast.File
	Info  *types.Info
}

// A Diagnostic is one contract violation.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string { return d.Pos.String() + ": " + d.Message }

// Load runs `go list -export -deps` on patterns and type-checks
// the packages it names: this module's from source, in the dependency
// order go list prints, and every other (the standard library) from the
// compiler's export data. One importer serves them all, so a function is
// the same types.Object in the package that declares it and in every
// package that refers to it.
func Load(patterns ...string) (*token.FileSet, []*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Module"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file, ok := exports[path]; ok {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}

	var pkgs []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			Module                  *struct{ Main bool }
		}
		if err := dec.Decode(&lp); err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if lp.Module == nil || !lp.Module.Main {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		if len(lp.GoFiles) == 0 {
			continue // the repository root holds tests only
		}
		p := &Package{Info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, err
			}
			p.Files = append(p.Files, f)
		}
		tp, err := conf.Check(lp.ImportPath, fset, p.Files, p.Info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = tp
		pkgs = append(pkgs, p)
	}
	return fset, pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Check runs every rule over pkgs, which Load type-checked into fset,
// and returns what they report.
func Check(fset *token.FileSet, pkgs []*Package) []Diagnostic {
	c := &checker{fset: fset}
	for _, p := range pkgs {
		c.annotations(p)
		c.determinism(p)
	}
	c.schedOnly(pkgs)
	return c.diags
}

type checker struct {
	fset  *token.FileSet
	diags []Diagnostic
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Pos: c.fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}
