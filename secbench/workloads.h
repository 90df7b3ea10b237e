// The benchmark's four workloads over secflow's user pipeline (HDL in ->
// secure layout -> leakage verdict out).  Each is driven as a closed loop
// by one client: an op starts when the previous one ends.  README.md
// beside this file gives the reason for each.
//
//   des_flow     the paper's reduced-DES module through both flows
//   aes_backend  4 AES S-boxes through the secure backend, layer by layer
//   des_attack   TVLA + CPA + MTD + Fig 6 DPA on both DES layouts
//   des_rerun    a 5-job DES campaign re-run against a warm checkpoint store
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "layers.h"

namespace secbench {

/// What one op produced besides its verdict.
struct OpOutcome {
  double wirelength_mm = 0.0;        ///< routed fat-net wirelength (secure)
  double rail_mismatch_max_ff = 0.0; ///< max |C(n_t) - C(n_f)| (secure)
  std::int64_t traces = 0;           ///< simulated power traces
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One-time work before the first op.  Each call redoes it from scratch.
  virtual void setup() = 0;
  /// One op.  With `trace` set, the op is replayed with a span around
  /// every layer call; the workload brackets the traced part with
  /// trace->begin_op() / end_op().  Throws when a correctness check fails.
  virtual void op(int index, LayerTrace* trace, OpOutcome& out) = 0;
};

/// Build workload `name`.  Every input derives from `seed`; files go under
/// `work_dir`.  Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir);

}  // namespace secbench
