// The fuzzer's oracle catalogue.
//
// Three tiers over one generated design (DESIGN.md §12):
//
//   metamorphic   wire renaming and statement shuffling must leave the
//                 whole checkpoint digest chain bit-identical; port
//                 permutation must stay logically equivalent; thread count
//                 and observability must never change flow artifacts.
//   security      the decomposed WDDL netlist, simulated over random
//                 plaintexts: precharge drives every rail pair to (0,0),
//                 evaluation raises exactly one rail per pair (one
//                 switching event per gate per phase, complementary
//                 rails), and per-pair extracted capacitance mismatch
//                 stays under the DESIGN.md §5 bound.
//   cross-check   LEC(fat == rtl), fat-vs-original simulation agreement on
//                 random vectors, differential-vs-reference lockstep
//                 simulation over random cycles, and the power simulator's
//                 stepped cycles against booked ones (rtl and differential
//                 netlists).
//
// Every verdict is deterministic in (program, OracleOptions): details
// embed no pointers, timings or paths, so a replay reproduces the battery
// digest bit-exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/inject.h"
#include "fuzz/program.h"

namespace secflow {

struct OracleOptions {
  /// Randomness for test vectors and transform seeds (derived from the
  /// design seed by the fuzzer, so one seed fixes the whole case).
  std::uint64_t seed = 0;
  int n_vectors = 1000;  ///< fat-vs-original agreement vectors/cycles
  int n_cycles = 16;     ///< WDDL and step-vs-book simulation cycles
  /// DESIGN.md §5 matched-load bound: worst and mean per-pair
  /// |C(n_t) - C(n_f)| over the extracted differential layout.
  double cap_worst_ff = 20.0;
  double cap_mean_ff = 1.5;
  /// Run the expensive flow-level oracles (two full secure-flow runs plus
  /// extraction analysis).  The fuzzer enables this every Nth case.
  bool deep = false;
  FaultKind inject = FaultKind::kNone;
};

struct OracleVerdict {
  std::string oracle;  ///< catalogue name, e.g. "wddl-rails-one-hot"
  bool ok = true;
  std::string detail;  ///< deterministic description; "" when ok
};

struct OracleReport {
  std::vector<OracleVerdict> verdicts;
  /// Description of the planted fault, "" when none was requested or the
  /// design offered no usable site.
  std::string injected_edit;
  /// False when a fault was requested but the design has no site for it
  /// (e.g. pin-swap on a design with only symmetric gates).
  bool injectable = true;

  bool all_ok() const;
  const OracleVerdict* first_failure() const;
  /// Order-sensitive FNV digest of (oracle, ok, detail) — the value
  /// replays compare bit-exactly.
  std::uint64_t digest() const;
};

/// Run the battery on one program.  Never throws: infrastructure
/// exceptions become failing verdicts (a crash on generated input is a
/// finding, not a fuzzer error).
OracleReport run_oracle_battery(const HdlModule& p,
                                const OracleOptions& opts = {});

}  // namespace secflow
