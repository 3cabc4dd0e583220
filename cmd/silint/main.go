// Command silint is the repository's vet tool: a multichecker bundling
// the custom analyzers that machine-check the read path's memory and
// cancellation conventions (borrowcheck, epochpin, ctxloop) plus
// nilness (lite), which plain go vet does not run. docs/LINTING.md is
// the catalog.
//
// It is not run directly; cmd/go drives it:
//
//	go build -o bin/silint ./cmd/silint
//	go vet -vettool=bin/silint ./...
//
// Every analyzer always runs; a single finding is silenced in source
// with //silint:ignore <analyzer> <justification>.
package main

import (
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/borrowcheck"
	"repro/internal/analysis/ctxloop"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/epochpin"
	"repro/internal/analysis/nilness"
)

// analyzers is the suite silint runs, in reporting order.
var analyzers = []*analysis.Analyzer{
	borrowcheck.Analyzer,
	epochpin.Analyzer,
	ctxloop.Analyzer,
	nilness.Analyzer,
}

func main() {
	os.Exit(driver.Main(analyzers))
}
