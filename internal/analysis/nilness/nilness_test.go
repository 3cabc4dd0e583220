package nilness_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/nilness"
)

func TestNilness(t *testing.T) {
	analysistest.Run(t, "testdata/src", nilness.Analyzer, "a")
}
