package haft

// The dead-code gate: every exported identifier declared under
// internal/ must be referenced by some non-test .go file other than its
// own declaration. The users are the internal packages themselves, the
// root package, cmd/, examples/ and bench/ (its own module, but it
// builds against this tree). Matching is by name, so it can only miss
// dead code, never flag live code:
//
//   - a top-level name is used by a bare identifier in its own package
//     or by pkg.Name in a file that imports the package;
//   - a method is used by any selector of that name anywhere, or when
//     the root package re-exports its type by alias (public API).
//
// A self-reference (recursion, a type naming itself) is not a use.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadCodeAllow lists the exported identifiers that no non-test file
// references but that stay, one reason each.
var deadCodeAllow = map[string]string{
	"lang.Interp":  "the AST interpreter is the oracle the lowering's tests compare against",
	"ir.MustParse": "the textual-IR fixture parser shared by ten packages' tests",
	"cfg.VerifySSA": "the strict SSA-dominance oracle the lowering and workload tests hold modules to; " +
		"ir.Verify checks shape only",
	"obs.FlightRecorder.Bundles": "public API: haft.Server.Flight() returns the recorder, and Bundles reads " +
		"the in-memory bundles that ServeConfig.FlightMax bounds",
	"obs.DomainVM":     "the zero Domain: an event that names no domain is a VM event, so it is used implicitly",
	"htm.System.Draws": "reports the abort-stream position until per-core draws replace the stream (ROADMAP item 8)",
}

func TestNoDeadExportedCode(t *testing.T) {
	dead, err := scanDeadCode(".")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, d := range dead {
		flagged[d] = true
		if _, ok := deadCodeAllow[d]; !ok {
			t.Errorf("%s is exported from internal/ but no non-test file uses it: delete it or allowlist it with a reason", d)
		}
	}
	for id, reason := range deadCodeAllow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s has no reason", id)
		}
		if !flagged[id] {
			t.Errorf("allowlist entry %s is used (or gone): drop the entry", id)
		}
	}
}

// srcFile is one parsed Go file.
type srcFile struct {
	dir     string // slash-separated, relative to the repo root
	test    bool
	ast     *ast.File
	imports map[string]string // local name -> import path
}

// loadSources parses every .go file of the root package, internal/,
// cmd/, examples/ and bench/ under root, testdata excluded.
func loadSources(root string) ([]srcFile, error) {
	fset := token.NewFileSet()
	var files []srcFile
	for _, top := range []string{".", "internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				if os.IsNotExist(err) && p == filepath.Join(root, top) {
					return filepath.SkipDir
				}
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || (top == "." && p != filepath.Join(root, ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, filepath.Dir(p))
			sf := srcFile{dir: filepath.ToSlash(rel), test: strings.HasSuffix(p, "_test.go"), ast: f, imports: map[string]string{}}
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				name := path.Base(ip)
				if im.Name != nil {
					name = im.Name.Name
				}
				sf.imports[name] = ip
			}
			files = append(files, sf)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

// scanDeadCode returns the sorted keys ("pkg.Name", "pkg.Type.Method")
// of the exported identifiers under root/internal that nothing uses.
func scanDeadCode(root string) ([]string, error) {
	all, err := loadSources(root)
	if err != nil {
		return nil, err
	}
	var files []srcFile
	for _, f := range all {
		if !f.test {
			files = append(files, f)
		}
	}

	type decl struct {
		key, dir, name string
		method         bool
	}
	var decls []decl
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkg := f.ast.Name.Name
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					decls = append(decls, decl{funcKey(pkg, d), f.dir, d.Name.Name, d.Recv != nil})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls = append(decls, decl{pkg + "." + s.Name.Name, f.dir, s.Name.Name, false})
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls = append(decls, decl{pkg + "." + n.Name, f.dir, n.Name, false})
							}
						}
					}
				}
			}
		}
	}

	// A use is recorded with the key of the top-level declaration it
	// sits in, so that a self-reference can be told apart.
	type use struct{ name, in string }
	bare := map[string][]use{}         // dir -> bare identifiers
	qualified := map[string]bool{}     // "importpath.Name" used from another package
	selectors := map[string][]string{} // selector name -> enclosing keys
	public := map[string]bool{}        // "pkg.Type" re-exported by the root package
	for _, f := range files {
		pkg := f.ast.Name.Name
		visit := func(n ast.Node, in string) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selectors[n.Sel.Name] = append(selectors[n.Sel.Name], in)
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := f.imports[x.Name]; ok {
							qualified[ip+"."+n.Sel.Name] = true
							return false
						}
					}
				case *ast.Ident:
					bare[f.dir] = append(bare[f.dir], use{n.Name, in})
				}
				return true
			})
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				visit(d.Type, funcKey(pkg, d))
				if d.Body != nil {
					visit(d.Body, funcKey(pkg, d))
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						visit(s.Type, pkg+"."+s.Name.Name)
						if f.dir == "." && s.Assign.IsValid() {
							if sel, ok := s.Type.(*ast.SelectorExpr); ok {
								if x, ok := sel.X.(*ast.Ident); ok {
									public[path.Base(f.imports[x.Name])+"."+sel.Sel.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						if s.Type != nil {
							visit(s.Type, "")
						}
						for _, v := range s.Values {
							visit(v, "")
						}
					}
				}
			}
		}
	}

	var dead []string
	for _, d := range decls {
		used := false
		if d.method {
			typ := d.key[:strings.LastIndexByte(d.key, '.')]
			used = public[typ]
			for _, in := range selectors[d.name] {
				used = used || in != d.key
			}
		} else {
			used = qualified["repro/"+d.dir+"."+d.name]
			for _, u := range bare[d.dir] {
				used = used || (u.name == d.name && u.in != d.key)
			}
		}
		if !used {
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// funcKey is "pkg.Name" for a function and "pkg.Type.Name" for a
// method, Type being the receiver's base type name.
func funcKey(pkg string, d *ast.FuncDecl) string {
	if d.Recv == nil {
		return pkg + "." + d.Name.Name
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return pkg + "." + x.Name + "." + d.Name.Name
		default:
			return pkg + ".?." + d.Name.Name
		}
	}
}

// TestDeadCodeGateFlagsAnUnusedFunction plants an unused exported
// function in a copy of one package and checks the scan names it.
func TestDeadCodeGateFlagsAnUnusedFunction(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("haft.go", "package haft\n\nimport \"repro/internal/p\"\n\ntype T = p.T\n\nvar _ = p.Used\n")
	write("internal/p/p.go", `package p

type T struct{}

func (T) Public() {}

func Used() int { return helper() }

func helper() int { return 1 }

func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func Unused() {}
`)
	dead, err := scanDeadCode(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p.Recursive", "p.Unused"}
	if strings.Join(dead, ",") != strings.Join(want, ",") {
		t.Fatalf("scan flagged %v, want %v", dead, want)
	}
}

// TestDocsNameLiveIdentifiers: every backticked qualified Go
// identifier in the docs whose qualifier is a package of this
// repository — `pkg.Name`, `pkg.Type.Method` or `pkg.Type.Field`,
// optionally called — must resolve to a declaration (test files
// included), so deleting code cannot leave the docs naming it.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	files, err := loadSources(".")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, f := range files {
		pkg := strings.TrimSuffix(f.ast.Name.Name, "_test")
		declared[pkg] = true
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declared[funcKey(pkg, d)] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declared[pkg+"."+s.Name.Name] = true
						var fields *ast.FieldList
						switch x := s.Type.(type) {
						case *ast.StructType:
							fields = x.Fields
						case *ast.InterfaceType:
							fields = x.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								declared[pkg+"."+s.Name.Name+"."+n.Name] = true
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declared[pkg+"."+n.Name] = true
						}
					}
				}
			}
		}
	}
	ident := regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?[`(]")
	checked := 0
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ident.FindAllStringSubmatch(string(text), -1) {
			if !declared[m[1]] {
				continue // not a package of this repository
			}
			checked++
			name := m[1] + "." + m[2]
			if m[3] != "" {
				name += "." + m[3]
			}
			if !declared[name] {
				t.Errorf("%s names %s, which no Go file declares", doc, name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("the docs name no qualified identifier: the pattern is broken")
	}
}
