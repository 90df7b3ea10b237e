// The fuzzer's helpers over the mini-HDL AST (synth/hdl.h).
//
// The fuzzer never manipulates HDL as raw text: the generator builds an
// HdlModule, the metamorphic transforms below permute and rename it
// structurally, the minimizer shrinks it, and emit_hdl() prints the
// mini-HDL the flow consumes.  A stored reproducer's .v reads back through
// parse_hdl_module(), the flow's own parser, so a replay re-runs every
// oracle, the metamorphic ones that need the structure included.
#pragma once

#include <cstdint>
#include <string>

#include "synth/hdl.h"

namespace secflow {

/// Lines of emit_hdl() output — the minimizer's size objective and the
/// "reproducer of N HDL lines" metric.
int hdl_line_count(const HdlModule& p);

/// Width of a declared signal; 0 when undeclared.
int signal_width(const HdlModule& p, const std::string& name);

// --- metamorphic transforms -------------------------------------------------
//
// Each returns a semantically equivalent variant.  rename/shuffle are
// *digest-neutral*: elaboration is demand-driven from the (unchanged)
// port/register declarations, so the AigCircuit — and with it every stage
// key of the checkpoint chain and every flow artifact — is bit-identical.
// Port permutation genuinely reorders the netlist's ports (the artifacts
// differ byte-wise), so its oracle is logical equivalence instead.

/// Rename every wire (ports, regs and the module name stay — those names
/// are part of the artifacts).
HdlModule rename_wires(const HdlModule& p, std::uint64_t seed);

/// Permute assign order, nonblocking-assignment order, wire-declaration
/// order, and toggle whether the always block is emitted split.
HdlModule shuffle_statements(const HdlModule& p, std::uint64_t seed);

/// Permute the input and output port declaration orders.
HdlModule permute_ports(const HdlModule& p, std::uint64_t seed);

}  // namespace secflow
