package dedisys

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unusedAPIAllowlist names the exported functions and methods under internal/
// that no production file calls, each with why it stays. A function is
// "pkg.Name", a method "pkg.Type.Name". Every reason is one of four kinds: a
// mechanism of the paper (PAPER.md), a ROADMAP item that will call it, the
// chaos soak's harness, or support that tests of other packages share.
var unusedAPIAllowlist = map[string]string{
	"reconcile.Auto":                                  "paper: reconciliation on every re-unifying view change (Fig. 4.6)",
	"replication.NewRateEstimator":                    "paper: update-rate staleness estimator (§4.2.1)",
	"replication.RateEstimator.Attach":                "paper: update-rate staleness estimator (§4.2.1)",
	"replication.RateEstimator.Forget":                "paper: update-rate staleness estimator (§4.2.1)",
	"core.Manager.RegisterDeferredNegotiationHandler": "paper: deferred threat negotiation (§5.4)",
	"core.Manager.SetDisableViolatedConstraints":      "paper: disabling violated constraints at reconciliation (§3.3)",
	"wiretransport.RoundTripFrame":                    "ROADMAP 2(e): the benchmark's codec probes will frame through it",
	"replication.Manager.TombstoneCount":              "ROADMAP 17(b): the tombstone harness's acceptance reads it",
	"chaos.Execute":                                   "chaos soak harness (TestChaosSoak)",
	"chaos.Generate":                                  "chaos soak harness (TestChaosSoak)",
	"persistence.Store.Keys":                          "test support: threat and replication tests list stored keys",
	"detect.Detector.Suspects":                        "test support: node's detector tests read suspicions",
	"constraint.MustFromExpr":                         "test support: node's declarative constraint tables",
}

// implicitMethods are called by the runtime or the standard library through
// an interface, never by name in this module.
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"GobEncode": true, "GobDecode": true, "MarshalBinary": true, "UnmarshalBinary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// TestUnusedProductionAPI fails when an exported top-level function or method
// in a non-test file under internal/ has no reference from any non-test file
// of the module (internal/, cmd/, benchmark/, examples/) and is not on the
// allowlist, or when an allowlist entry names nothing unused. A function is
// resolved by package (a pkg.Name selector, or a bare name in its own
// package); a method by its name alone, which errs towards "referenced" for
// interface calls and names that several types share. A method an interface
// declares counts as called.
//
// The name match is a blind spot: a method no code calls passes when a
// method of any other type with the same name is referenced. Only a
// type-resolved scan (go/types over the packages' export data) sees such a
// method as unused.
func TestUnusedProductionAPI(t *testing.T) {
	type decl struct {
		name string // pkg.Name or pkg.Type.Name
		pos  string
	}
	var funcs, methods = map[string]decl{}, map[string][]decl{}
	funcRefs, methodRefs := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "benchmark", "examples"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(p))
			pkg := "dedisys/" + dir
			if root == "internal" {
				for _, fd := range f.Decls {
					fn, ok := fd.(*ast.FuncDecl)
					if !ok || !fn.Name.IsExported() {
						continue
					}
					pos := fset.Position(fn.Pos()).String()
					if fn.Recv == nil {
						funcs[pkg+"."+fn.Name.Name] = decl{path.Base(dir) + "." + fn.Name.Name, pos}
						continue
					}
					methods[fn.Name.Name] = append(methods[fn.Name.Name],
						decl{path.Base(dir) + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name, pos})
				}
			}
			imports := map[string]string{}
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				local := path.Base(ip)
				if im.Name != nil {
					local = im.Name.Name
				}
				imports[local] = ip
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// The declared name is no reference to itself.
					if n.Recv != nil {
						ast.Inspect(n.Recv, visit)
					}
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.SelectorExpr:
					methodRefs[n.Sel.Name] = true
					if id, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[id.Name]; ok {
							funcRefs[ip+"."+n.Sel.Name] = true
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.InterfaceType:
					// A method an interface declares is called through it.
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							methodRefs[name.Name] = true
						}
					}
				case *ast.Ident:
					funcRefs[pkg+"."+n.Name] = true
				}
				return true
			}
			ast.Inspect(f, visit)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var unused []decl
	for key, d := range funcs {
		if !funcRefs[key] {
			unused = append(unused, d)
		}
	}
	for name, ds := range methods {
		if !methodRefs[name] && !implicitMethods[name] {
			unused = append(unused, ds...)
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].name < unused[j].name })
	seen := map[string]bool{}
	for _, d := range unused {
		seen[d.name] = true
		if reason, ok := unusedAPIAllowlist[d.name]; ok {
			t.Logf("allowed %-45s %s", d.name, reason)
			continue
		}
		t.Errorf("%s: %s has no production caller: delete it, or allowlist it with its reason", d.pos, d.name)
	}
	for name := range unusedAPIAllowlist {
		if !seen[name] {
			t.Errorf("allowlist entry %s names no unused function: drop the entry", name)
		}
	}
	t.Logf("%d allowlisted names", len(unusedAPIAllowlist))
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
