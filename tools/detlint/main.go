// Command detlint is the repository's determinism linter. Deterministic
// replay is a correctness property here — findings, reports, and
// disassembly must be byte-identical run to run — so the patterns that
// most often smuggle nondeterminism into Go code are banned outright:
//
//   - time.Now / time.Since anywhere. No report reads the host clock;
//     the simulated clock is the only time a result may depend on. The
//     few deliberate reads (a wall-clock safety budget, the benchmark's
//     own timer) each carry a //detlint:ok comment.
//   - Package-level math/rand calls (rand.Intn, rand.Shuffle, ...),
//     which draw from the global, unseeded source. Constructing an
//     explicitly seeded generator (rand.New, rand.NewSource,
//     rand.NewZipf) is fine.
//   - Ranging over a map while feeding ordered output (append, Print*,
//     Fprint*, Write*) inside the loop body. Map iteration order is
//     random; anything ordered built from it must sort first. This is a
//     heuristic: it flags ranges whose operand is syntactically a map
//     (map literal, make(map...), or a variable the same file declares
//     as a map) and whose body grows a slice or writes output. The
//     collect-then-sort idiom is recognized: a sort.* / slices.Sort*
//     call after the loop in the same block sanitizes it.
//
// A deliberate exception is silenced with a trailing comment on the
// offending line, or a comment on the line directly above:
//
//	//detlint:ok <reason>
//
// The reason is mandatory — a bare //detlint:ok does not silence.
// _test.go files and testdata directories are skipped.
//
// Usage (CI runs exactly this):
//
//	go run ./tools/detlint ./...
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type finding struct {
	pos token.Position
	msg string
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var findings []finding
	for _, arg := range args {
		root := strings.TrimSuffix(strings.TrimSuffix(arg, "..."), "/")
		if root == "" {
			root = "."
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			fs, ferr := lintFile(path)
			findings = append(findings, fs...)
			return ferr
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
			os.Exit(2)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, f := range findings {
		fmt.Printf("%s:%d: %s\n", f.pos.Filename, f.pos.Line, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d determinism finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// lintFile parses one file and applies every rule to it.
func lintFile(path string) ([]finding, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	allowed := allowlist(fset, file)
	timeName, randName := importNames(file)
	mapVars := declaredMapVars(file)
	sorted := sanitizedRanges(file)

	var out []finding
	report := func(pos token.Pos, msg string) {
		p := fset.Position(pos)
		if allowed[p.Line] || allowed[p.Line-1] {
			return
		}
		out = append(out, finding{pos: p, msg: msg})
	}

	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch {
			case pkg.Name == timeName && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since"):
				report(n.Pos(), fmt.Sprintf(
					"time.%s breaks deterministic replay; plumb the simulated clock, or mark a deliberate host-clock read with //detlint:ok <reason>",
					sel.Sel.Name))
			case pkg.Name == randName && !seededConstructor(sel.Sel.Name):
				report(n.Pos(), fmt.Sprintf(
					"rand.%s draws from the global unseeded source; construct rand.New(rand.NewSource(seed)) instead",
					sel.Sel.Name))
			}
		case *ast.RangeStmt:
			if isMapExpr(n.X, mapVars) && feedsOrdering(n.Body) && !sorted[n.Pos()] {
				report(n.Pos(),
					"range over a map feeds ordered output; map iteration order is random — collect keys and sort first")
			}
		}
		return true
	})
	return out, nil
}

// allowlist returns the set of lines carrying a //detlint:ok comment
// with a non-empty reason.
func allowlist(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//detlint:ok")
			if !ok || strings.TrimSpace(rest) == "" {
				continue
			}
			// Findings check their own line and the line above, so both
			// trailing and preceding placements of the comment work.
			lines[fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}

// importNames returns the local names of the "time" and "math/rand"
// imports ("" when not imported).
func importNames(file *ast.File) (timeName, randName string) {
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch path {
		case "time":
			timeName = orDefault(name, "time")
		case "math/rand", "math/rand/v2":
			randName = orDefault(name, "rand")
		}
	}
	return
}

func orDefault(name, def string) string {
	if name == "" {
		return def
	}
	if name == "_" || name == "." {
		// Dot/blank imports defeat selector matching; treat as absent.
		return ""
	}
	return name
}

// seededConstructor reports whether a math/rand function is safe at
// package level because it only constructs explicitly-seeded state.
func seededConstructor(name string) bool {
	switch name {
	case "New", "NewSource", "NewZipf":
		return true
	}
	return false
}

// declaredMapVars collects names the file declares with a syntactically
// visible map type: `var x map[...]`, `x := make(map[...]...)`, or
// `x := map[...]{...}`. Name-level, not scope-aware — good enough for a
// heuristic that is silenced per line anyway.
func declaredMapVars(file *ast.File) map[string]bool {
	vars := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if _, ok := n.Type.(*ast.MapType); ok {
				for _, name := range n.Names {
					vars[name.Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if exprIsMap(rhs) {
					vars[id.Name] = true
				}
			}
		}
		return true
	})
	return vars
}

// exprIsMap reports whether an expression is syntactically a map value:
// a map composite literal or make(map[...]...).
func exprIsMap(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		_, ok := e.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) == 0 {
			return false
		}
		_, ok = e.Args[0].(*ast.MapType)
		return ok
	}
	return false
}

// isMapExpr reports whether a range operand is (heuristically) a map.
func isMapExpr(e ast.Expr, mapVars map[string]bool) bool {
	if exprIsMap(e) {
		return true
	}
	if id, ok := e.(*ast.Ident); ok {
		return mapVars[id.Name]
	}
	return false
}

// sanitizedRanges marks range statements that are followed, later in
// the same enclosing block, by a sort.* or slices.Sort* call — the
// collect-then-sort idiom this linter wants people to use.
func sanitizedRanges(file *ast.File) map[token.Pos]bool {
	ok := map[token.Pos]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		block, isBlock := n.(*ast.BlockStmt)
		if !isBlock {
			return true
		}
		for i, st := range block.List {
			rs, isRange := st.(*ast.RangeStmt)
			if !isRange {
				continue
			}
			for _, later := range block.List[i+1:] {
				if stmtSorts(later) {
					ok[rs.Pos()] = true
					break
				}
			}
		}
		return true
	})
	return ok
}

// stmtSorts reports whether a statement is (or contains, for simple
// expression/assign statements) a sort.* or slices.Sort* call.
func stmtSorts(st ast.Stmt) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok {
				if pkg.Name == "sort" ||
					(pkg.Name == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort")) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// feedsOrdering reports whether a loop body grows an ordered
// accumulation: an append call, or a call whose method name looks like
// output (Print*, Fprint*, Write*, WriteString, Sprintf into append...).
func feedsOrdering(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" {
				found = true
			}
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
				strings.HasPrefix(name, "Write") {
				found = true
			}
		}
		return !found
	})
	return found
}
