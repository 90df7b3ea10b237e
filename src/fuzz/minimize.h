// Delta-debugging reproducer minimizer.
//
// Given a program on which some oracle fails, shrink it while the *same*
// oracle keeps failing (checked through a caller-supplied predicate, so the
// minimizer never misattributes a new, different failure to the original
// bug).  Passes run to a fixpoint under an attempt budget: drop outputs,
// turn registers into inputs, eliminate wires, drop unused ports,
// scalarize all vectors to 1 bit, and hill-climb each expression tree down
// to a child or a constant.  Every pass keeps the program well-formed —
// a candidate that no longer elaborates simply fails the predicate.
#pragma once

#include <functional>

#include "fuzz/program.h"

namespace secflow {

struct MinimizeResult {
  HdlModule program;
  int attempts = 0;       ///< predicate evaluations spent
  int initial_lines = 0;  ///< hdl_line_count before
  int final_lines = 0;    ///< hdl_line_count after
};

/// Shrink `p` while `still_fails` holds, evaluating it at most
/// `max_attempts` times (each evaluation re-runs the oracle battery, which
/// for deep-tier failures means full flow runs).  `still_fails(p)` must be
/// true on entry (the unminimized reproducer).  Deterministic: same
/// program, same predicate behaviour, same result.
MinimizeResult minimize_program(
    const HdlModule& p,
    const std::function<bool(const HdlModule&)>& still_fails,
    int max_attempts);

}  // namespace secflow
