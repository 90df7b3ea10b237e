// Random mini-HDL design generator.
//
// Produces small *sequential* HdlModules — registers, synchronous
// resets, multi-output modules, bit-granular assigns — deterministically
// from a seed: the same seed yields the same program on every platform,
// which is what makes corpus seeds replayable.
//
// Designs are kept shallow on purpose: the secure flow rejects circuits
// whose critical path exceeds half the clock cycle (the WDDL precharge
// wave must settle), and a fuzzer that mostly generates designs the flow
// refuses to build tests nothing.
#pragma once

#include <cstdint>

#include "fuzz/program.h"

namespace secflow {

/// Generate a random well-formed program.  Every output bit is driven,
/// wires are ranked so combinational assigns cannot form loops, and every
/// register has exactly one nonblocking assignment.  The size limits are
/// constants of generator.cpp.
HdlModule generate_program(std::uint64_t seed);

}  // namespace secflow
