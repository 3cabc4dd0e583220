package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/core"
)

// FuzzParseParams drives the query-parameter parser sisrv and sirouter
// share over arbitrary limit, offset, timeout and explain strings and
// match caps. It must never panic, and whatever it accepts must be a
// window the engine can evaluate: offset >= 0, 0 <= limit <= cap when
// capped, an early-stop target below math.MaxInt (the saturated target
// of an overflowing window) and a non-negative timeout. BoundParams on
// the same numbers — the /batch path — must return the same bounds.
// The committed seeds (testdata/fuzz/FuzzParseParams) hold the
// offset+limit overflow offset, negative values, "1e3", an empty
// timeout and "0s".
func FuzzParseParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, limit, offset, timeout, explain string, maxMatches int) {
		v := url.Values{"q": {"NP(DT)(NN)"}}
		for k, s := range map[string]string{"limit": limit, "offset": offset, "timeout": timeout, "explain": explain} {
			if s != "" {
				v.Set(k, s)
			}
		}
		p, err := ParseParams(httptest.NewRequest(http.MethodGet, "/search?"+v.Encode(), nil), maxMatches)
		if err != nil {
			return
		}
		if p.Offset < 0 || p.Limit < 0 || (maxMatches >= 0 && p.Limit > maxMatches) || p.Timeout < 0 {
			t.Fatalf("cap %d: accepted limit %d, offset %d, timeout %s", maxMatches, p.Limit, p.Offset, p.Timeout)
		}
		if target := (core.SearchOpts{Limit: p.Limit, Offset: p.Offset}).Target(); target == math.MaxInt {
			t.Fatalf("cap %d: accepted limit %d, offset %d, whose window end overflows", maxMatches, p.Limit, p.Offset)
		}
		var rawLimit, rawOffset int
		if limit != "" {
			rawLimit, _ = strconv.Atoi(limit)
		}
		if offset != "" {
			rawOffset, _ = strconv.Atoi(offset)
		}
		l, o, d, err := BoundParams(maxMatches, rawLimit, rawOffset, timeout)
		if err != nil || l != p.Limit || o != p.Offset || d != p.Timeout {
			t.Fatalf("BoundParams(%d, %d, %d, %q) = %d, %d, %s, %v; ParseParams gave %d, %d, %s",
				maxMatches, rawLimit, rawOffset, timeout, l, o, d, err, p.Limit, p.Offset, p.Timeout)
		}
	})
}
