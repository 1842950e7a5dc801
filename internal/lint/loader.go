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
	"sort"
	"strconv"
	"strings"
)

// LoadError reports a failure to load or typecheck the target packages. The
// CLI maps it to exit code 2, keeping "the tree is broken" distinct from
// "the tree has findings".
type LoadError struct {
	Stage string // "go list", "parse", "typecheck"
	Err   error
}

func (e *LoadError) Error() string { return fmt.Sprintf("lint: %s: %v", e.Stage, e.Err) }
func (e *LoadError) Unwrap() error { return e.Err }

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load loads, parses and typechecks the packages matching the go package
// patterns (e.g. "./...") in dir, plus export data for everything they
// import, by shelling out to `go list -json -export -deps`. Only non-standard
// module packages become Program members; dependencies are consumed as
// compiler export data, so loading needs no third-party machinery.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-json=ImportPath,Dir,GoFiles,Export,Standard,Module,Error", "-export", "-deps",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, &LoadError{Stage: "go list", Err: fmt.Errorf("%s", msg)}
	}

	exports, targets, err := parseGoList(out)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	prog := &Program{Fset: fset}
	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, &LoadError{Stage: "parse", Err: err}
			}
			files = append(files, f)
		}
		pkg, err := typecheck(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

// parseGoList decodes the concatenated-JSON stream `go list -json -export
// -deps` writes, splitting it into export-data paths (every package) and
// load targets (non-standard module packages). Package-level list errors and
// malformed JSON both surface as "go list"-stage LoadErrors, which the CLI
// maps to exit 2.
func parseGoList(out []byte) (exports map[string]string, targets []listPackage, err error) {
	exports = map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, &LoadError{Stage: "go list", Err: err}
		}
		if p.Error != nil {
			return nil, nil, &LoadError{Stage: "go list", Err: fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)}
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && p.Module != nil {
			targets = append(targets, p)
		}
	}
	return exports, targets, nil
}

// LoadDirs loads one package per directory, resolving imports of other given
// directories from source and everything else from toolchain export data
// fetched with one `go list -export` invocation. It exists for fixture trees
// laid out GOPATH-style (testdata/src/<import/path>/...): root is the "src"
// directory and dirs are import paths relative to it.
func LoadDirs(root string, dirs ...string) (*Program, error) {
	fset := token.NewFileSet()
	l := &sourceLoader{
		fset:    fset,
		root:    root,
		checked: map[string]*Package{},
	}

	// Parse every requested package up front to discover the full stdlib
	// import set, then fetch export data for all of it in one go invocation.
	var all []string
	seen := map[string]bool{}
	var gather func(path string) error
	gather = func(path string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		files, err := l.parseDir(path)
		if err != nil {
			return err
		}
		l.parsed[path] = files
		for _, f := range files {
			for _, spec := range f.Imports {
				ip, _ := strconv.Unquote(spec.Path.Value)
				if l.isSource(ip) {
					if err := gather(ip); err != nil {
						return err
					}
				} else if !seen["ext:"+ip] {
					seen["ext:"+ip] = true
					all = append(all, ip)
				}
			}
		}
		return nil
	}
	l.parsed = map[string][]*ast.File{}
	for _, d := range dirs {
		if err := gather(d); err != nil {
			return nil, err
		}
	}
	sort.Strings(all)
	exports, err := listExports(all)
	if err != nil {
		return nil, err
	}
	l.imp = exportImporter(fset, exports)

	prog := &Program{Fset: fset}
	for _, d := range dirs {
		pkg, err := l.load(d)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

// listExports fetches export-data file paths for the given import paths (and
// their dependencies) with one `go list` call. An empty path list is a no-op.
func listExports(paths []string) (map[string]string, error) {
	exports := map[string]string{}
	if len(paths) == 0 {
		return exports, nil
	}
	args := append([]string{"list", "-json=ImportPath,Export", "-export", "-deps"}, paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, &LoadError{Stage: "go list", Err: fmt.Errorf("%s", msg)}
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, &LoadError{Stage: "go list", Err: err}
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// sourceLoader typechecks GOPATH-style source packages under root, chaining
// to an export-data importer for everything else.
type sourceLoader struct {
	fset    *token.FileSet
	root    string
	parsed  map[string][]*ast.File
	checked map[string]*Package
	imp     types.Importer
}

func (l *sourceLoader) isSource(importPath string) bool {
	st, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(importPath)))
	return err == nil && st.IsDir()
}

func (l *sourceLoader) parseDir(importPath string) ([]*ast.File, error) {
	dir := filepath.Join(l.root, filepath.FromSlash(importPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, &LoadError{Stage: "parse", Err: err}
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, &LoadError{Stage: "parse", Err: err}
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, &LoadError{Stage: "parse", Err: fmt.Errorf("no Go files in %s", dir)}
	}
	return files, nil
}

// Import implements types.Importer over the fixture tree.
func (l *sourceLoader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isSource(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.imp.Import(path)
}

func (l *sourceLoader) load(importPath string) (*Package, error) {
	if pkg, ok := l.checked[importPath]; ok {
		return pkg, nil
	}
	files := l.parsed[importPath]
	if files == nil {
		var err error
		if files, err = l.parseDir(importPath); err != nil {
			return nil, err
		}
	}
	pkg, err := typecheck(l.fset, importPath, files, l)
	if err != nil {
		return nil, err
	}
	l.checked[importPath] = pkg
	return pkg, nil
}

// exportImporter returns a types.Importer reading compiler export data from
// the file paths reported by `go list -export`.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typecheck runs go/types over one package's files.
func typecheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, &LoadError{Stage: "typecheck", Err: err}
	}
	return &Package{Path: path, Syntax: files, Types: tpkg, Info: info}, nil
}
