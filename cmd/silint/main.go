// Command silint is the repository's vet tool: a multichecker bundling
// the custom analyzers that machine-check the read path's memory and
// cancellation conventions (borrowcheck, epochpin, ctxloop) plus the
// two extra standard passes CI forces (lostcancel, nilness). docs/LINTING.md is the catalog.
//
// It is not run directly; cmd/go drives it:
//
//	go build -o bin/silint ./cmd/silint
//	go vet -vettool=bin/silint ./...
//
// Disable one analyzer with its flag (go vet -vettool=... -ctxloop=false ./...),
// or silence a single finding in source with
// //silint:ignore <analyzer> <justification>.
package main

import (
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/borrowcheck"
	"repro/internal/analysis/ctxloop"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/epochpin"
	"repro/internal/analysis/vetlite"
)

// analyzers is the suite silint runs, in reporting order.
var analyzers = []*analysis.Analyzer{
	borrowcheck.Analyzer,
	epochpin.Analyzer,
	ctxloop.Analyzer,
	vetlite.LostCancel,
	vetlite.Nilness,
}

func main() {
	os.Exit(driver.Main(analyzers))
}
