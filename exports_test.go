package pleroma

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are exported functions and methods under internal/ that no
// program calls by name but that stay, each with its reason. Every other
// exported function there needs a caller outside _test.go files: a helper
// only its own unit test calls is deleted with that test, and an oracle
// lives in a _test.go file of its package.
var keptExports = map[string]string{
	"openflow.Table.SetCapacity":           "a bounded switch table is an open roadmap item that gives it a caller",
	"openflow.Table.Capacity":              "a bounded switch table is an open roadmap item that gives it a caller",
	"topo.Graph.HostsInPartition":          "fixture helper of the core, interdomain and facade tests",
	"netem.DataPlane.SwitchStatsFor":       "per-switch counters the facade and experiments tests assert on",
	"netem.DataPlane.RecordPaths":          "path recording the facade tests use to check hop sequences",
	"netem.FaultyProgrammer.FailNextBatch": "deterministic southbound fault the facade resync tests inject",
	"transport.Server.DropConnections":     "severs every session in the facade's reconnect tests",
	"dz.Expr.Child":                        "builds expressions in the openflow, netem and core tests",
	"dz.Geometry.Decompose":                "unlimited decomposition the interdomain and experiments tests use as a reference",
	"interdomain.WithStaticDiscovery":      "static topology the LLDP discovery tests compare against",
	"shard.Coordinator.Lookahead":          "the facade's sharded in-band test checks the lookahead the System picks",
	"core.SouthboundError.Unwrap":          "errors.Is and errors.As reach it through the Unwrap interface",
	"netem.InjectedError.Unwrap":           "errors.Is and errors.As reach it through the Unwrap interface",
	"topo.pathHeap.Less":                   "container/heap reaches it through heap.Interface",
}

// TestNoTestOnlyExports keeps test-only surface out of the production
// packages. It parses every non-test .go file of the repository, the
// cmd/pleroma-bench module included, and fails on an exported function or
// method declared under internal/ whose name appears nowhere outside its
// own declaration. Matching is by name alone, so a collision can hide a
// dead function but never flags a live one.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		name  string // package-qualified, e.g. "dz.Expr.Child"
		ident *ast.Ident
		pos   token.Position
	}
	var decls []decl
	uses := map[string]int{}
	declIdents := map[*ast.Ident]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declIdents[fd.Name] = true
			if internal && fd.Name.IsExported() {
				name := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					name = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{name, fd.Name, fset.Position(fd.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Declarations are idents too: subtract them before counting uses.
	for id := range declIdents {
		uses[id.Name]--
	}
	var unused []string
	flagged := map[string]bool{}
	for _, d := range decls {
		if uses[d.ident.Name] > 0 {
			continue
		}
		flagged[d.name] = true
		if _, ok := keptExports[d.name]; !ok {
			unused = append(unused, d.name+" ("+d.pos.String()+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s has no caller outside _test.go files: delete it, or move it into a _test.go file", u)
	}
	for name := range keptExports {
		if !flagged[name] {
			t.Errorf("keptExports lists %s, which is gone or has a non-test caller now: drop the entry", name)
		}
	}
}

func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
