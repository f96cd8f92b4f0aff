package hpcfail_test

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

// keptUnreached lists the exported functions and methods under internal/
// that no non-test code names but that stay, each with the reason. Keys
// are "package.Func" or "package.Type.Method".
var keptUnreached = map[string]string{
	// References that tests compare the live code against.
	"dist.RefFitAll":   "reference FitAll the kernel comparison is tested against",
	"lanl.RefGenerate": "reference generator the parallel one is tested against",

	// Methods of types the facade hands out: public API.
	"analysis.InterarrivalStudy.BestFamily":          "hpcfail.Figure6 returns the study",
	"analysis.InterarrivalStudy.ExponentialAdequate": "hpcfail.Figure6 returns the study",
	"analysis.RepairFitStudy.LogNormalBest":          "hpcfail.Figure7 returns the study",
	"dist.Exponential.Rate":                          "parameter accessor of a facade distribution",
	"dist.LogNormal.Mu":                              "parameter accessor of a facade distribution",
	"dist.LogNormal.Sigma":                           "parameter accessor of a facade distribution",
	"dist.Normal.Mu":                                 "parameter accessor, kept so every family has its accessors",
	"dist.Normal.Sigma":                              "parameter accessor, kept so every family has its accessors",
	"dist.Pareto.Xm":                                 "parameter accessor, kept so every family has its accessors",
	"dist.Pareto.Alpha":                              "parameter accessor, kept so every family has its accessors",
	"dist.HyperExp.Rate1":                            "parameter accessor, kept so every family has its accessors",
	"dist.HyperExp.Rate2":                            "parameter accessor, kept so every family has its accessors",
	"dist.ParamCI.Overlaps":                          "method of the interval the facade's FitCI returns",
	"randx.Source.Uniform":                           "method of the facade's random source",
	"sim.Cluster.QueueLength":                        "method of the facade's simulated cluster",
	"sim.Engine.Pending":                             "method of the facade's event engine",
	"sim.Job.Checkpoints":                            "method of the facade's simulated job",
	"trend.PowerLaw.Intensity":                       "method of the facade's power-law fit",
	"trend.PowerLaw.ExpectedEvents":                  "method of the facade's power-law fit",
	"trend.PowerLaw.MilHdbk189GoodnessOfFit":         "method of the facade's power-law fit",
}

// calledByName lists method names the runtime, the standard library or
// an interface calls without the repo's code naming them.
var calledByName = map[string]string{
	"String":          "fmt.Stringer",
	"Error":           "error",
	"Unwrap":          "errors.Is and errors.As",
	"MarshalJSON":     "encoding/json.Marshaler",
	"MarshalBinary":   "encoding.BinaryMarshaler",
	"UnmarshalBinary": "encoding.BinaryUnmarshaler",
	"Len":             "sort.Interface and heap.Interface",
	"Less":            "sort.Interface and heap.Interface",
	"Swap":            "sort.Interface and heap.Interface",
	"Push":            "heap.Interface",
	"Pop":             "heap.Interface",
}

// TestInternalExportsReached fails for each exported function or method
// declared under internal/ that no non-test Go file in the repository
// names, outside its own declaration. Go forbids importing internal/ from
// another module, so the commands, examples, the facade, the benchmark
// module and the other internal packages are all the code that can reach
// one; an export none of them names is dead weight.
func TestInternalExportsReached(t *testing.T) {
	type decl struct {
		key, name string
		method    bool
		pos       token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	named := map[string]bool{}
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
		own := map[*ast.Ident]bool{}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				key := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil {
					recv := receiverType(fn.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					key = f.Name.Name + "." + recv + "." + fn.Name.Name
				}
				own[fn.Name] = true
				decls = append(decls, decl{key, fn.Name.Name, fn.Recv != nil, fset.Position(fn.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
	declared := map[string]bool{}
	var unreached []string
	for _, d := range decls {
		declared[d.key] = true
		if named[d.name] || keptUnreached[d.key] != "" || (d.method && calledByName[d.name] != "") {
			continue
		}
		unreached = append(unreached, d.key+" ("+d.pos.String()+")")
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("exported but named by no non-test code: %s", u)
	}
	for key := range keptUnreached {
		if !declared[key] {
			t.Errorf("keptUnreached names %s, which is not declared under internal/", key)
		}
	}
}

// receiverType returns the type name of a method receiver, without any
// pointer or type parameters.
func receiverType(e ast.Expr) string {
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
			return ""
		}
	}
}
