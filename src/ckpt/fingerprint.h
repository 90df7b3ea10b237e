// Content fingerprints of the flow's cache-key inputs.
//
// A stage's cache key is a hash chain: H(schema, flow kind, circuit,
// library) -> synthesis -> ... -> extraction, each link folding in exactly
// the options that influence that stage's artifact.  Anything that cannot
// change the produced bytes (thread counts, verbosity) is deliberately
// excluded, so a run with different parallelism still hits the cache —
// the flow is bit-identical for any thread count by design.
#pragma once

#include <cstdint>

#include "base/units.h"
#include "extract/extract.h"
#include "netlist/cell_library.h"
#include "pnr/place.h"
#include "pnr/route.h"
#include "synth/circuit.h"
#include "synth/techmap.h"

namespace secflow {

/// Structural hash of the AIG plus its named boundary (inputs, outputs,
/// registers, module name, clock).
std::uint64_t fingerprint(const AigCircuit& circuit);

/// Every cell's logical, physical and electrical data, in library order.
std::uint64_t fingerprint(const CellLibrary& lib);

std::uint64_t fingerprint(const Process018& p);
std::uint64_t fingerprint(const SynthConstraints& c);
/// Every member: each one changes the placement.
std::uint64_t fingerprint(const PlaceOptions& o);
/// Every member: each one changes the routed geometry.
std::uint64_t fingerprint(const RouteOptions& o);
/// Every member, the process constants included.
std::uint64_t fingerprint(const ExtractOptions& o);

}  // namespace secflow
