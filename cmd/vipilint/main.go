// Command vipilint runs the repo's static-analysis suite
// (internal/lint) over a Go source tree and reports findings with
// file:line positions.
//
//	vipilint [flags] [root]
//
// root defaults to the current directory. The tree is loaded under
// go/types and every rule runs over the packages that type-check; a
// package that does not is one finding. -strict also reports stale
// //lint:ignore directives.
//
// Exit codes follow the flowerr convention: 0 when the tree is clean,
// the ErrDRC code when findings remain (lint findings are design-rule
// violations on the source), and the ErrBadInput code when the driver
// itself fails (unreadable root, unparsable source, a `go list` of the
// standard-library imports that cannot run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vipipe/internal/cliutil"
	"vipipe/internal/flowerr"
	"vipipe/internal/lint"
)

func main() {
	app := cliutil.New("vipilint")
	app.JSONFlag()
	strict := flag.Bool("strict", false, "also report stale //lint:ignore directives that suppress nothing")
	rules := flag.Bool("rules", false, "list the rules and exit")
	flag.Parse()

	if *rules {
		for _, r := range lint.DefaultRules() {
			fmt.Printf("%-12s %s\n", r.Name(), r.Doc())
		}
		return
	}

	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	diags, err := lint.Run(root, lint.Options{Strict: *strict})
	if err != nil {
		app.Fatal(err)
	}
	if app.JSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			app.Fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vipilint: %d finding(s)\n", len(diags))
		os.Exit(flowerr.ExitDRC)
	}
}
