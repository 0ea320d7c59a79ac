// Command gearboxvet is the project's static-contract multichecker: it runs
// the internal/analyzers suite — maprange, globalrand, wallclock, hotalloc,
// sharedwrite, borrowretain, lockcheck, narrow32 — over the module and
// fails if any determinism, wall-clock, allocation, shared-write,
// borrowing, locking or narrowing contract is violated without a
// justifying //gearbox: annotation (see DESIGN.md §7, "Statically enforced
// contracts").
//
// Usage:
//
//	go run ./cmd/gearboxvet [-only maprange,hotalloc] [-list] [-json] [packages...]
//
// Packages default to ./... relative to the current directory, which must be
// inside the module. With -json, findings are emitted as a JSON array of
// {analyzer, file, line, column, message} objects (CI archives this and a
// problem matcher turns the text form into inline annotations); the default
// text form is one `file:line:col: analyzer: message` line per finding.
// Exit status: 0 clean, 1 findings, 2 load/internal error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"gearbox/internal/analyzers"
	"gearbox/internal/analyzers/analysis"
	"gearbox/internal/analyzers/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("gearboxvet", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array instead of text lines")
	fs.Parse(args)

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		var sel []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			i := slices.IndexFunc(suite, func(a *analysis.Analyzer) bool { return a.Name == name })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "gearboxvet: unknown analyzer %q\n", name)
				return 2
			}
			sel = append(sel, suite[i])
		}
		suite = sel
	}

	patterns := fs.Args()
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gearboxvet:", err)
		return 2
	}

	type finding struct {
		analyzer string
		diag     analysis.Diagnostic
	}
	var findings []finding
	// One fact store for the whole run: load.Packages returns dependency
	// order, so facts a pass exports about a package's objects (borrowretain's
	// //gearbox:borrowed marks) are visible to later passes over importers.
	facts := analysis.NewFacts()
	for _, pkg := range pkgs {
		for _, a := range suite {
			if !analyzers.Applies(a, pkg.Path) {
				continue
			}
			pass := &analysis.Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Facts:    facts,
				Report: func(d analysis.Diagnostic) {
					findings = append(findings, finding{analyzer: a.Name, diag: d})
				},
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "gearboxvet: %s: %s: %v\n", a.Name, pkg.Path, err)
				return 2
			}
		}
	}

	slices.SortFunc(findings, func(a, b finding) int {
		if a.diag.Pos != b.diag.Pos {
			return int(a.diag.Pos - b.diag.Pos)
		}
		return strings.Compare(a.analyzer, b.analyzer)
	})

	if *asJSON {
		type jsonFinding struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			pos := pkgs[0].Fset.Position(f.diag.Pos)
			out = append(out, jsonFinding{
				Analyzer: f.analyzer,
				File:     pos.Filename,
				Line:     pos.Line,
				Column:   pos.Column,
				Message:  f.diag.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "gearboxvet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			pos := pkgs[0].Fset.Position(f.diag.Pos)
			fmt.Printf("%s: %s: %s\n", pos, f.analyzer, f.diag.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "gearboxvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
