// Liberty-lite parser.
//
// Accepts the subset of the Liberty format needed to describe the cells in
// this flow:
//
//   library(NAME) {
//     cell(NAME) {
//       area : 6.65;
//       width : 1.32;            /* secflow extension: footprint [um] */
//       height : 5.04;
//       intrinsic_delay : 28;    /* ps */
//       drive_resistance : 4.0;  /* kohm */
//       internal_cap : 1.2;      /* fF */
//       ff : true;               /* marks a D flip-flop */
//       tie : true;              /* marks a constant driver */
//       pin(A) { direction : input; capacitance : 2.1; }
//       pin(Y) { direction : output; function : "!(A&B)"; }
//       pin(CK) { direction : input; clock : true; capacitance : 1.4; }
//     }
//   }
//
// Comments (/* */ and //) are allowed anywhere.  Exactly one output pin per
// cell.  For combinational cells the output `function` is mandatory; flops
// use pins D/CK/Q by name; ties state their constant via function "0"/"1".
#pragma once

#include <memory>
#include <string>

#include "netlist/cell_library.h"

namespace secflow {

/// Parse Liberty-lite text into a validated CellLibrary.
std::shared_ptr<CellLibrary> parse_liberty(const std::string& text);

/// Render a CellLibrary back to Liberty-lite text (round-trips through
/// parse_liberty; used for the flow's lib.v artifact and tests).
std::string write_liberty(const CellLibrary& lib);

}  // namespace secflow
