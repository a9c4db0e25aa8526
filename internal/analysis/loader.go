package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Config selects what Load loads. Dir may be any directory inside the
// module; Load walks up to the enclosing go.mod.
type Config struct {
	Dir string
}

// Module is the fully loaded and type-checked module under the host build
// context: every package under the module root (testdata and hidden
// directories excluded), with the ASTs, type information, //xbar:hotpath
// annotations, and //xbar:allow suppressions the analyzers consume.
type Module struct {
	Fset *token.FileSet
	Dir  string // module root (the directory holding go.mod)
	Path string // module path declared by go.mod

	Packages []*Package // sorted by import path

	// hotpath maps the declaration object of every //xbar:hotpath-annotated
	// function to its declaration, across all packages.
	hotpath map[types.Object]*ast.FuncDecl

	// allows records //xbar:allow comments: filename -> line -> analyzer
	// names allowed there. A finding is suppressed when its line or the
	// line above carries an allow for its analyzer.
	allows map[string]map[int][]string

	// malformed collects driver-level findings (bad allow comments) that
	// are reported alongside analyzer findings.
	malformed []Finding
}

// Package is one loaded package of the module.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File // non-test files selected by the build context
	Pkg   *types.Package
	Info  *types.Info
}

// loader resolves imports: module-internal paths load recursively from
// source under the module's build context; everything else (stdlib — the
// module has no dependencies) goes through the go/types source importer.
type loader struct {
	fset    *token.FileSet
	ctx     build.Context
	modPath string
	modDir  string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// Load type-checks the whole module.
func Load(cfg Config) (*Module, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(abs); err != nil {
		return nil, err
	} else if !fi.IsDir() {
		return nil, fmt.Errorf("analysis: %s is not a directory", abs)
	}
	modDir, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	// The stdlib is imported from source; with cgo off the pure-Go variants
	// of net/os/user are selected, which is all type checking needs. The
	// source importer reads build.Default, so the global must agree.
	ctx.CgoEnabled = false
	build.Default.CgoEnabled = false

	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		ctx:     ctx,
		modPath: modPath,
		modDir:  modDir,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	dirs, err := packageDirs(modDir)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Fset:    fset,
		Dir:     modDir,
		Path:    modPath,
		hotpath: make(map[types.Object]*ast.FuncDecl),
		allows:  make(map[string]map[int][]string),
	}
	for _, d := range dirs {
		path := modPath
		if rel, _ := filepath.Rel(modDir, d); rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if pkg != nil {
			m.Packages = append(m.Packages, pkg)
		}
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].Path < m.Packages[j].Path })
	m.collectAnnotations()
	return m, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (string, string, error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			mm := moduleLine.FindSubmatch(data)
			if mm == nil {
				return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
			}
			return d, string(mm[1]), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		d = parent
	}
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// packageDirs lists every directory under root that holds .go files,
// skipping testdata, hidden, and underscore-prefixed directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

func (l *loader) isModulePath(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// Import implements types.Importer for the type checker's import callbacks.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isModulePath(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module package (cached).
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.modDir
	if path != l.modPath {
		dir = filepath.Join(l.modDir, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// collectAnnotations indexes //xbar:hotpath function annotations and
// //xbar:allow suppression comments across the module.
func (m *Module) collectAnnotations() {
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "xbar:hotpath" {
						if obj := pkg.Info.Defs[fd.Name]; obj != nil {
							m.hotpath[obj] = fd
						}
					}
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m.recordAllow(c)
				}
			}
		}
	}
}

// recordAllow parses one comment for the //xbar:allow <analyzer> <reason>
// form. A missing reason is itself reported: suppressions must say why.
func (m *Module) recordAllow(c *ast.Comment) {
	text := strings.TrimPrefix(c.Text, "//")
	if !strings.HasPrefix(text, "xbar:allow") {
		return
	}
	fields := strings.Fields(strings.TrimPrefix(text, "xbar:allow"))
	pos := m.Fset.Position(c.Pos())
	if len(fields) < 2 {
		m.malformed = append(m.malformed, Finding{
			Pos:      pos,
			Analyzer: "xbarvet",
			Message:  "malformed suppression: want //xbar:allow <analyzer> <reason>",
		})
		return
	}
	lines := m.allows[pos.Filename]
	if lines == nil {
		lines = make(map[int][]string)
		m.allows[pos.Filename] = lines
	}
	end := m.Fset.Position(c.End()).Line
	lines[end] = append(lines[end], fields[0])
}

// allowed reports whether an //xbar:allow for analyzer covers the finding
// position (same line, or the whole line above).
func (m *Module) allowed(analyzer string, pos token.Position) bool {
	lines := m.allows[pos.Filename]
	if lines == nil {
		return false
	}
	match := func(l int) bool {
		for _, a := range lines[l] {
			if a == analyzer {
				return true
			}
		}
		return false
	}
	if match(pos.Line) {
		return true
	}
	// Walk up through a contiguous block of allow comments, so several
	// analyzers can be suppressed above one statement, one line each.
	for l := pos.Line - 1; len(lines[l]) > 0; l-- {
		if match(l) {
			return true
		}
	}
	return false
}

// Hotpath reports whether obj is a //xbar:hotpath-annotated function.
func (m *Module) Hotpath(obj types.Object) bool {
	_, ok := m.hotpath[obj]
	return ok
}
