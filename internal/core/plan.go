package core

import "repro/internal/planner"

// Plan is a compiled query; the type lives in internal/planner (the
// middle stage of the decompose → plan → execute pipeline) and is
// aliased here so the evaluation code reads naturally.
type Plan = planner.Plan

// PlanPiece is one cover piece of a compiled plan; aliased from
// internal/planner.
type PlanPiece = planner.PlanPiece
