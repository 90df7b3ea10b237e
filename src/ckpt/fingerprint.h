// Content fingerprints of the flow's cache-key inputs.
//
// A stage's cache key is a hash chain: H(schema, flow kind, circuit,
// library) -> synthesis -> ... -> extraction, each link folding in exactly
// the options its stage reads (placement: the place options and the wire
// pitch and width), in the order of their knob lists (flow/knobs.h).
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
