// Command walrus-lint runs the repository's custom static analyzers
// (ctxflow, determinism, errsink, goroleak, hotalloc, lockdiscipline,
// obs, parallelconv, snapshotsafe) over the module.
//
// Usage:
//
//	walrus-lint [flags] [packages]
//
// With no package patterns it analyzes ./.... Packages are type-checked
// and analyzed in parallel, on GOMAXPROCS workers. Exit status is 0 when
// the tree is clean, 1 when diagnostics were reported, and 2 on usage or
// load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"walrus/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	flags := flag.NewFlagSet("walrus-lint", flag.ContinueOnError)
	only := flags.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flags.Bool("list", false, "list the available analyzers and exit")
	verbose := flags.Bool("v", false, "print per-analyzer timing to stderr")
	if err := flags.Parse(os.Args[1:]); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "walrus-lint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "walrus-lint: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "walrus-lint: %v\n", err)
		return 2
	}

	start := time.Now()
	pkgs, err := loader.Load(flags.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "walrus-lint: %v\n", err)
		return 2
	}
	diags, spent := lint.Run(pkgs, analyzers)
	if *verbose {
		fmt.Fprintf(os.Stderr, "walrus-lint: %d packages analyzed in %v\n", len(pkgs), time.Since(start).Round(1e6))
		names := make([]string, 0, len(spent))
		for name := range spent {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "walrus-lint:   %-16s %v\n", name, spent[name].Round(1e3))
		}
	}

	if err := lint.WriteText(os.Stdout, loader.ModRoot, diags); err != nil {
		fmt.Fprintf(os.Stderr, "walrus-lint: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
