// Interconnect decomposition (paper section 2.3): fat.def -> diff.def.
//
// Every fat wire is duplicated and translated: the true rail keeps the fat
// centre-line coordinates, the false rail is the same geometry translated
// by one fine track pitch diagonally (+p, +p) — a uniform translation
// preserves junction connectivity, parallel runs and equal lengths, which
// is exactly what makes the two rails' parasitics match.  Width is reduced
// to the normal wire width during stream-out (the diff LEF carries the
// normal wire definition).  Single-ended nets (the clock) are translated
// to the true-rail position only.
#pragma once

#include <string>
#include <vector>

#include "lef/lef.h"
#include "pnr/def.h"

namespace secflow {

struct DecomposeOptions {
  /// Nets kept single-ended (clock, power); width-reduced but not split.
  std::vector<std::string> single_ended_nets;
  /// The paper's "shielded lines" option: emit a grounded shield wire at
  /// (+2p, +2p) alongside every differential pair, on the kShieldNet net,
  /// so cross-talk couples to a static net instead of a neighbouring pair.
  /// Requires the fat wires to have been routed with wire_scale = 3 (three
  /// fine tracks per fat wire: t rail, f rail, shield).
  bool add_shields = false;
};

/// The grounded net every shield wire belongs to.
inline constexpr const char* kShieldNet = "VSS";

/// Decompose a routed fat design.  `fine_pitch`/`fine_width` come from the
/// normal (non-fat) wire definition.
DefDesign decompose_interconnect(const DefDesign& fat,
                                 std::int64_t fine_pitch,
                                 std::int64_t fine_width,
                                 const DecomposeOptions& opts = {});

/// Differential physical library (diff_lib.lef): fat macros with each data
/// pin split into _t (original offset) and _f (offset + (p, p)) and the
/// normal wire definition.  Flop CK pins stay single-ended.
LefLibrary make_diff_lef(const LefLibrary& fat_lef, double fine_pitch_um,
                         double fine_width_um);

}  // namespace secflow
