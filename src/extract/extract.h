// Geometric parasitic extraction (the Virtuoso stand-in).
//
// Computes per-net resistance, ground capacitance (area + fringe + vias +
// sink pin caps) and same-layer coupling capacitance to neighbouring
// wires.  The security property of the secure flow lives or dies on these
// numbers: matched rails -> matched switched charge -> no DPA leakage.
// A configurable process-variation sigma models the residual mismatch the
// paper acknowledges ("perfect security does not exist").
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "base/units.h"
#include "lef/lef.h"
#include "netlist/netlist.h"
#include "pnr/def.h"

namespace secflow {

struct NetParasitics {
  double wire_cap_ff = 0.0;      ///< area + fringe + via caps
  double pin_cap_ff = 0.0;       ///< connected sink pin caps
  double coupling_cap_ff = 0.0;  ///< total lateral coupling
  double res_kohm = 0.0;
  std::vector<std::pair<std::string, double>> couplings;  ///< per neighbour

  double total_cap_ff() const {
    return wire_cap_ff + pin_cap_ff + coupling_cap_ff;
  }
};

struct ExtractOptions {
  Process018 process;
  /// Ignore lateral coupling beyond this separation; at most
  /// kMaxCouplingSepUm.
  double coupling_max_sep_um = 1.2;
  /// Relative 1-sigma process variation applied to every net's caps
  /// (deterministic per seed).  0 disables.
  double variation_sigma = 0.0;
  std::uint64_t seed = 7;
};

/// The widest legal coupling window [um]: far wider than any die, and
/// small enough that its conversion to DBU cannot overflow.
inline constexpr double kMaxCouplingSepUm = 1e6;

struct Extraction {
  std::unordered_map<std::string, NetParasitics> nets;

  const NetParasitics* find(const std::string& net) const {
    const auto it = nets.find(net);
    return it == nets.end() ? nullptr : &it->second;
  }
  double total_cap_ff() const;
};

/// Extract parasitics for every routed net of `design`.  Pin caps come
/// from `nl` (nets matched by name; nets absent from the netlist get wire
/// caps only).  Throws Error when `opts.coupling_max_sep_um` is outside
/// [0, kMaxCouplingSepUm].
Extraction extract_parasitics(const DefDesign& design, const Netlist& nl,
                              const ExtractOptions& opts = {});

/// Per-net switched-capacitance table for the power simulator: routed nets
/// use extracted values; netlist-internal nets (inside WDDL compounds, not
/// routed at the top level) get sink pin caps plus a fixed local-wire
/// estimate.  Keys are netlist net names.
std::unordered_map<std::string, double> build_cap_table(
    const Netlist& nl, const Extraction& ex,
    double internal_wire_ff = 0.8);

/// Rail mismatch report for differential designs: |C(n_t) - C(n_f)| per
/// pair, keyed by the fat net base name.
std::unordered_map<std::string, double> rail_mismatch_ff(const Extraction& ex);

/// The paper's "balanced intrinsic capacitances / custom designed cells"
/// strengthening option (end of section 3): pad the lighter rail of every
/// _t/_f pair toward the heavier one.  strength 1.0 equalizes the pair
/// exactly (dummy capacitance added inside the compound); 0 is a no-op.
/// Returns the number of pairs adjusted.
int balance_rail_caps(std::unordered_map<std::string, double>& caps,
                      double strength = 1.0);

}  // namespace secflow
