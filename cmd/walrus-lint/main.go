// Command walrus-lint runs the repository's custom static analyzers
// (ctxflow, determinism, errsink, goroleak, hotalloc, lockdiscipline,
// obs, parallelconv, snapshotsafe) over the module.
//
// Usage:
//
//	walrus-lint [flags] [packages]
//
// With no package patterns it analyzes ./.... Packages are analyzed in
// parallel, and results are cached per package in .walrus-lint-cache at
// the module root (keyed by source and dependency content hashes) so a
// warm run skips type-checking unchanged packages; -no-cache disables
// the cache and -cache-path moves it. Exit status is 0 when the tree is
// clean, 1 when diagnostics were reported, and 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"walrus/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	flags := flag.NewFlagSet("walrus-lint", flag.ContinueOnError)
	jsonOut := flags.Bool("json", false, "emit diagnostics as a JSON array")
	sarifOut := flags.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	only := flags.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flags.Bool("list", false, "list the available analyzers and exit")
	verbose := flags.Bool("v", false, "print per-analyzer timing and cache statistics to stderr")
	jobs := flags.Int("jobs", 0, "packages analyzed in parallel (0 = GOMAXPROCS)")
	noCache := flags.Bool("no-cache", false, "disable the per-package result cache")
	cachePath := flags.String("cache-path", "", "result cache file (default: .walrus-lint-cache at the module root)")
	if err := flags.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "walrus-lint: -json and -sarif are mutually exclusive")
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

	opts := lint.RunOptions{Jobs: *jobs, Timings: *verbose}
	if !*noCache {
		opts.CachePath = *cachePath
		if opts.CachePath == "" {
			opts.CachePath = filepath.Join(loader.ModRoot, ".walrus-lint-cache")
		}
	}
	diags, stats, err := lint.RunModule(loader, flags.Args(), analyzers, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "walrus-lint: %v\n", err)
		return 2
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "walrus-lint: %d packages, %d cached, %d analyzed in %v\n",
			stats.Packages, stats.CacheHits, stats.CacheMisses, stats.Elapsed.Round(1e6))
		names := make([]string, 0, len(stats.Analyzers))
		for name := range stats.Analyzers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "walrus-lint:   %-16s %v\n", name, stats.Analyzers[name].Round(1e3))
		}
	}

	switch {
	case *jsonOut:
		err = lint.WriteJSON(os.Stdout, diags)
	case *sarifOut:
		err = lint.WriteSARIF(os.Stdout, loader.ModRoot, analyzers, diags)
	default:
		err = lint.WriteText(os.Stdout, loader.ModRoot, diags)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "walrus-lint: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
