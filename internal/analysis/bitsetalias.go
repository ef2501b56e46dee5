package analysis

import (
	"go/ast"
	"go/types"
)

// BitsetAliasAnalyzer enforces the bitset mutation discipline: bitset.Set is
// a value type over a shared []uint64 backing array, so mutating methods
// (Set, Clear, SetWord, CopyFrom, UnionWith, AndNotWith) called on a
// temporary either silently discard the write (fresh result of
// Clone/With/New) or silently mutate state shared with someone else (a set
// fetched out of a map or returned by an accessor).
// Both are aliasing hazards: mutations must go through a named variable
// whose ownership is locally evident.
//
// The analyzer also guards the preprocessing artifacts the Dataset layer
// shares across concurrent runs: pli.PLI, pli.Index, pli.Partition, and
// dataset.Dataset are immutable once built, so any assignment whose target
// is reached through an accessor call returning (a pointer or slice of)
// one of these types, or through any method called on one of them,
// mutates state other goroutines may be reading. The
// owning packages (internal/pli, internal/dataset) construct the artifacts
// and are exempt; everyone else must copy before modifying.
var BitsetAliasAnalyzer = &Analyzer{
	Name: "bitsetalias",
	Doc:  "mutating bitset methods must not be called on call results or map elements; shared PLI/Dataset state must not be written through accessor results",
	Run:  runBitsetAlias,
}

// bitsetMutators are the methods of bitset.Set that write the backing array
// in place.
var bitsetMutators = map[string]bool{
	"Set":        true,
	"Clear":      true,
	"SetWord":    true,
	"CopyFrom":   true,
	"UnionWith":  true,
	"AndNotWith": true,
}

// sharedArtifactNames lists, per owning module-relative package, the named
// types whose instances are shared read-only between concurrent runs once
// preprocessing completes. pli.Cache is deliberately absent: it is per-run
// mutable state.
var sharedArtifactNames = map[string]map[string]bool{
	"internal/pli":     {"PLI": true, "Index": true, "Partition": true},
	"internal/dataset": {"Dataset": true},
}

// sharedStateExempt names the module-relative packages that own the shared
// artifacts and may legitimately write their internals during construction.
var sharedStateExempt = map[string]bool{
	"internal/bitset":  true,
	"internal/pli":     true,
	"internal/dataset": true,
}

func runBitsetAlias(pass *Pass) {
	rel, ok := relModulePath(pass.Prog, pass.Pkg.Path)
	if !ok {
		return
	}
	bitsetPath := pass.Prog.ModulePath + "/internal/bitset"
	checkShared := !sharedStateExempt[rel]
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if checkShared {
					for _, lhs := range x.Lhs {
						checkSharedWrite(pass, info, lhs)
					}
				}
			case *ast.IncDecStmt:
				if checkShared {
					checkSharedWrite(pass, info, x.X)
				}
			case *ast.CallExpr:
				if pass.Pkg.Path == bitsetPath {
					return true // the implementation package manipulates words directly
				}
				sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
				if !ok || !bitsetMutators[sel.Sel.Name] {
					return true
				}
				selection, ok := info.Selections[sel]
				if !ok || selection.Kind() != types.MethodVal || !isNamed(selection.Recv(), bitsetPath, "Set") {
					return true
				}
				if origin, hazard := aliasHazard(info, sel.X); hazard {
					pass.Reportf(x.Pos(), "%s on a bitset obtained from %s; bind it to a variable first — the mutation aliases (or discards) shared words",
						sel.Sel.Name, origin)
				}
			}
			return true
		})
	}
}

// checkSharedWrite walks an assignment target toward its root and reports
// when the chain passes through a call returning shared preprocessing state
// (a PLI, Index, Partition, or Dataset, possibly behind pointers or
// slices), or through any method called on such state: writing through
// either mutates the artifact that concurrent runs read. The method rule
// covers accessors that hand out an artifact's internals under a plain
// type, such as Index.Row returning a record's []int32.
func checkSharedWrite(pass *Pass, info *types.Info, e ast.Expr) {
	pos := e.Pos()
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			name, shared := "", false
			if tv, ok := info.Types[x]; ok {
				name, shared = sharedArtifactType(tv.Type, pass.Prog.ModulePath)
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && !shared {
				if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
					name, shared = sharedArtifactType(s.Recv(), pass.Prog.ModulePath)
				}
			}
			if shared {
				pass.Reportf(pos, "write through a %s accessor result mutates shared preprocessing state; copy it (or build your own) before modifying", name)
			}
			return
		default:
			return
		}
	}
}

// sharedArtifactType unwraps pointers, slices, and arrays and reports
// whether the element is one of the shared preprocessing artifact types,
// returning its short pkg.Type name.
func sharedArtifactType(t types.Type, modulePath string) (string, bool) {
	for {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			named, path := namedType(t)
			if named == nil {
				return "", false
			}
			for pkg, names := range sharedArtifactNames {
				if path == modulePath+"/"+pkg && names[named.Obj().Name()] {
					return pkg[len("internal/"):] + "." + named.Obj().Name(), true
				}
			}
			return "", false
		}
	}
}

// aliasHazard walks the receiver expression toward its root and reports
// whether it flows from a function call or a map element.
func aliasHazard(info *types.Info, e ast.Expr) (origin string, hazard bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			return "a function result", true
		case *ast.IndexExpr:
			if tv, ok := info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					return "a map element", true
				}
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return "", false
		}
	}
}
