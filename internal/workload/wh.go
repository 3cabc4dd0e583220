// Package workload constructs the two query sets of the paper's
// evaluation (§6.1): the WH query set — 48 structural queries derived
// from what/which/where/who questions rewritten as matching sentences,
// parsed, and stripped of their lexical leaves — and the FB query set —
// subtrees extracted from held-out parsed sentences, stratified into
// seven label-frequency classes (H, M, L and combinations) with sizes
// 1 through 10.
package workload

import (
	"repro/internal/query"
)

// WHGroups lists the four question groups in the paper's order.
var WHGroups = []string{"who", "which", "where", "what"}

// WHQuerySet returns the 48-query WH set: 12 structure-only queries per
// group, modelled on Stanford parses of declarative rewrites of AOL
// questions (internal/corpusgen's synthetic corpus stands in for the
// paper's parsed news). Leaf terms are removed exactly as the paper
// describes, leaving tag structure.
func WHQuerySet() map[string][]*query.Query {
	src := map[string][]string{
		// "who is the mayor of new york city" → "mayor of new york city
		// is %match%": subject NP with PP attachment, copular VP.
		"who": {
			"S(NP(NP(NN))(PP(IN)(NP(NNP)(NNP))))(VP(VBZ)(NP))",
			"S(NP(NNP))(VP(VBZ)(NP(DT)(NN)))",
			"S(NP(NP(DT)(NN))(PP(IN)(NP(NNP))))(VP(VBD)(NP))",
			"S(NP(NNP)(NNP))(VP(VBZ)(NP(DT)(JJ)(NN)))",
			"S(NP(DT)(NN))(VP(VBZ)(NP(NP(NN))(PP(IN)(NP))))",
			"S(NP(NNP))(VP(VBD)(NP)(PP(IN)(NP)))",
			"S(NP(NP(NNP))(PP(IN)(NP(NN))))(VP(VBZ)(NP))",
			"S(NP(DT)(NN)(NN))(VP(VBZ)(NP(NNP)))",
			"S(NP(NNP))(VP(MD)(VP(VB)(NP)))",
			"S(NP(PRP))(VP(VBZ)(NP(DT)(NN)))",
			"S(NP(NP(DT)(JJ)(NN))(PP(IN)(NP)))(VP(VBZ)(NP))",
			"S(NP(NNP)(NNP))(VP(VBD)(SBAR(IN)(S(NP)(VP))))",
		},
		// "which drug treats X" style: determiner-marked subject or
		// object NPs.
		"which": {
			"S(NP(DT)(NN))(VP(VBZ)(NP(DT)(NN)(NN)))",
			"S(NP(DT)(JJ)(NN))(VP(VBZ)(NP)(PP(IN)(NP)))",
			"S(NP(DT)(NN))(VP(VBD)(NP(DT)(JJ)(NN)))",
			"S(NP(DT)(NN)(NN))(VP(VBZ)(ADJP(JJ)))",
			"S(NP(DT)(NN))(VP(VBZ)(SBAR(WHNP(WDT))(S(VP))))",
			"S(NP(NP(DT)(NN))(SBAR(WHNP(WDT))(S(VP(VBZ)))))(VP)",
			"S(NP(DT)(NNS))(VP(VBD)(NP)(PP(IN)(NP(DT)(NN))))",
			"S(NP(DT)(JJ)(JJ)(NN))(VP(VBZ)(NP))",
			"S(NP(DT)(NN))(VP(MD)(VP(VB)(NP(DT)(NN))))",
			"S(NP(DT)(NN)(POS))(VP)",
			"S(NP(CD)(NNS))(VP(VBD)(NP(DT)(NN)))",
			"S(NP(DT)(VBG)(NN))(VP(VBZ)(NP))",
		},
		// "where is X" → locative PPs dominate.
		"where": {
			"S(NP(NNP))(VP(VBZ)(PP(IN)(NP(NNP))))",
			"S(NP(DT)(NN))(VP(VBZ)(PP(IN)(NP(DT)(NN))))",
			"S(NP(NP(NN))(PP(IN)(NP)))(VP(VBZ)(PP(IN)(NP)))",
			"S(PP(IN)(NP(NNP)))(NP(DT)(NN))(VP(VBZ))",
			"S(NP(NNP)(NNP))(VP(VBZ)(VP(VBN)(PP(IN)(NP))))",
			"S(NP(DT)(NN))(VP(VBD)(PP(IN)(NP(NNP))))",
			"S(NP(PRP))(VP(VBD)(PP(IN)(NP(DT)(JJ)(NN))))",
			"S(NP(DT)(NNS))(VP(VBD)(PP(TO)(NP)))",
			"S(NP(NN))(VP(VBZ)(PP(IN)(NP(NP)(PP(IN)(NP)))))",
			"S(NP(NNP))(VP(VBZ)(NP(NN))(PP(IN)(NP)))",
			"S(EX)(VP(VBZ)(NP(DT)(NN))(PP(IN)(NP)))",
			"S(NP(DT)(NN)(NN))(VP(VBZ)(PP(IN)(NP(CD))))",
		},
		// "what kind of animal is agouti" → NP(NP)(PP) subjects with
		// copular predicates, per Figure 1.
		"what": {
			"S(NP(NNS))(VP(VBZ)(NP(DT)(NN)))",
			"S(NP(NP(NN))(PP(IN)(NP(NN))))(VP(VBZ)(NP))",
			"S(NP(DT)(NN))(VP(VBZ)(NP(NP(NN))(PP(IN)(NP))))",
			"S(NP(NN))(VP(VBZ)(ADJP(JJ)))",
			"S(NP(DT)(NN))(VP(VBZ)(NP(DT)(JJ)(NN)))",
			"S(NP(NNS))(VP(VBP))",
			"S(NP(NP(DT)(NN))(PP(IN)(NP(NNS))))(VP(VBZ))",
			"S(NP(DT)(NN))(VP(VBD)(NP)(PP(IN)(NP(NN))))",
			"S(NP(NN)(NNS))(VP(VBZ)(NP))",
			"S(NP(DT)(JJ)(NN))(VP(VBZ)(SBAR(IN)(S)))",
			"S(NP(PRP$)(NN))(VP(VBZ)(NP(DT)(NN)))",
			"S(NP(DT)(NN))(VP(VBZ)(NP(QP)))",
		},
	}
	out := map[string][]*query.Query{}
	for g, qs := range src {
		for _, s := range qs {
			out[g] = append(out[g], query.MustParse(s))
		}
	}
	return out
}
