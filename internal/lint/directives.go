package lint

import (
	"go/ast"
	"go/token"
	"regexp"
)

// Directive grammar: `//geslint:<name> <argument...>`. Two attachment
// scopes exist, resolved purely by position:
//
//   - line scope: on, or on the line directly above, the statement it
//     waives (go-ok, alloc-ok, retain-ok, err-ok, leak-ok);
//   - declaration scope: inside the doc comment of (or on the line directly
//     above) a func or type (kernel, snapshot-owner), or in the
//     declaration's same-line comment.
//
// lockorder is a module-wide declaration. Opt-outs that silence an
// interprocedural rule must say why: alloc-ok, retain-ok, err-ok, leak-ok
// and snapshot-owner require a non-empty justification argument. A bare
// one is inert (the site it would waive is still reported) and is itself a
// finding, so an opt-out can never silently rot into a blanket exemption.
// So is a directive whose name is not in the table: a misspelt marker
// would otherwise turn its check off without a word.
var directiveRe = regexp.MustCompile(`^//geslint:(\S*)\s*(.*?)\s*$`)
var lockOrderRe = regexp.MustCompile(`^(\S+)\s*<\s*(\S+)$`)

// directives maps every live directive to the rule that owns it (the tag of
// its findings) and whether its argument is a mandatory justification.
var directives = map[string]struct {
	rule   string
	reason bool
}{
	"lockorder":      {"R2", false},
	"go-ok":          {"R5", false},
	"kernel":         {"R7", false},
	"alloc-ok":       {"R7", true},
	"retain-ok":      {"R8", true},
	"snapshot-owner": {"R8", true},
	"err-ok":         {"R10", true},
	"leak-ok":        {"R11", true},
}

// eachDirective visits every //geslint: directive comment of f.
func eachDirective(f *ast.File, visit func(c *ast.Comment, name, arg string)) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if m := directiveRe.FindStringSubmatch(c.Text); m != nil {
				visit(c, m[1], m[2])
			}
		}
	}
}

// directiveLines maps source lines carrying the named line-scope directive.
func directiveLines(fset *token.FileSet, f *ast.File, name string) map[int]bool {
	out := map[int]bool{}
	for line := range lineReasons(fset, f, name) {
		out[line] = true
	}
	return out
}

// lineReasons maps source lines carrying the named directive to its
// argument text (the justification; possibly empty).
func lineReasons(fset *token.FileSet, f *ast.File, name string) map[int]string {
	out := map[int]string{}
	eachDirective(f, func(c *ast.Comment, n, arg string) {
		if n == name {
			out[fset.Position(c.Pos()).Line] = arg
		}
	})
	return out
}

// waivedAt reports whether a site at the given line is waived by a
// justified directive on that line or the line above. Unjustified
// directives do not waive (checkDirectives flags them separately).
func waivedAt(lines map[int]string, line int) bool {
	return lines[line] != "" || lines[line-1] != ""
}

// declDirective returns the argument of the named directive attached to a
// declaration: a directive line within the doc comment range, on the line
// directly above the declaration, or on the declaration's own line. nil
// means the directive is absent.
func declDirective(fset *token.FileSet, f *ast.File, name string, docPos, declPos token.Pos) *string {
	declLine := fset.Position(declPos).Line
	lo := declLine - 1
	if docPos.IsValid() {
		lo = fset.Position(docPos).Line
	}
	lines := lineReasons(fset, f, name)
	for line := lo; line <= declLine; line++ {
		if arg, ok := lines[line]; ok {
			return &arg
		}
	}
	return nil
}

// checkDirectives flags every directive whose name is not live (R0) and
// every reason-requiring directive that carries no justification text (under
// the owning rule). The finding lands on the directive's own line, and the
// directive stays inert.
func (a *Analysis) checkDirectives() {
	for _, pkg := range a.mod.Pkgs {
		for _, f := range pkg.Files {
			eachDirective(f, func(c *ast.Comment, name, arg string) {
				if d, live := directives[name]; !live {
					a.report(c.Pos(), "R0",
						"unknown directive //geslint:%s is inert; the live directives are listed in cmd/geslint",
						name)
				} else if d.reason && arg == "" {
					a.report(c.Pos(), d.rule,
						"//geslint:%s requires a one-line justification; a bare opt-out does not waive anything",
						name)
				}
			})
		}
	}
}
