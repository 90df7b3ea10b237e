// Content fingerprints of the flow's cache-key inputs.
//
// A stage's cache key is a hash chain: H(schema, flow kind, circuit,
// library) -> synthesis -> ... -> extraction, each link folding in the
// digest of the option structs that influence that stage's artifact,
// hashed in the order of their knob lists (flow/knobs.h).  Anything that
// cannot change the produced bytes (thread counts, verbosity) is
// deliberately excluded, so a run with different parallelism still hits
// the cache — the flow is bit-identical for any thread count by design.
#pragma once

#include <cstdint>

#include "netlist/cell_library.h"
#include "synth/circuit.h"

namespace secflow {

/// Structural hash of the AIG plus its named boundary (inputs, outputs,
/// registers, module name, clock).
std::uint64_t fingerprint(const AigCircuit& circuit);

/// Every cell's logical, physical and electrical data, in library order.
std::uint64_t fingerprint(const CellLibrary& lib);

}  // namespace secflow
