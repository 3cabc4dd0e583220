package borrowcheck_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/borrowcheck"
)

func TestBorrowcheck(t *testing.T) {
	analysistest.Run(t, "testdata/src", borrowcheck.Analyzer, "a", "repro/internal/btree")
}
