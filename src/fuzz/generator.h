// Random mini-HDL design generator.
//
// Produces small *sequential* HdlModules — registers, synchronous
// resets, multi-output modules, bit-granular assigns — deterministically
// from a seed: the same (seed, options) pair yields the same program on
// every platform, which is what makes corpus seeds replayable.
//
// Designs are kept shallow on purpose: the secure flow rejects circuits
// whose critical path exceeds half the clock cycle (the WDDL precharge
// wave must settle), and a fuzzer that mostly generates designs the flow
// refuses to build tests nothing.
#pragma once

#include <cstdint>

#include "fuzz/program.h"

namespace secflow {

struct GeneratorOptions {
  int max_width = 4;   ///< vector signals are [W-1:0], W in [2, max_width]
  int min_inputs = 2;
  int max_inputs = 4;
  int max_outputs = 3;
  int max_regs = 3;
  int max_wires = 3;
  int max_depth = 3;   ///< expression tree depth
  /// Probability a design is sequential (has >= 1 register).
  double seq_bias = 0.8;
  /// Probability a sequential design gets a synchronous reset input.
  double reset_bias = 0.5;
};

/// Generate a random well-formed program.  Every output bit is driven,
/// wires are ranked so combinational assigns cannot form loops, and every
/// register has exactly one nonblocking assignment.
HdlModule generate_program(std::uint64_t seed,
                           const GeneratorOptions& opts = {});

}  // namespace secflow
