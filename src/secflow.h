// secflow public API — the one header applications include.
//
// Everything exported here is the supported surface: the two flows
// (flow/flow.h), the campaign batch engine (campaign/), design entry
// (HDL parsing, the built-in 0.18 um library), writers for the standard
// interchange formats, the experiment toolkit (simulation, DPA/DFA/EMA
// analysis, DES/AES models), and the observability layer (reports,
// logging, metrics, tracing).
//
// Headers NOT listed here are internal: the placer/router/decomposer
// (pnr/*), equivalence checking internals (lec/*), the checkpoint
// store's hashing and serialization machinery (ckpt/* beyond what
// flow.h re-exports), the AIG core (synth/aig.h), and the Quine-
// McCluskey minimizer (wddl/qm.h).  They may change without notice;
// include them directly only from code inside this repository.
// DESIGN.md ("Public API vs internals") records the policy.
#pragma once

// Foundations: Error/ParseError, SECFLOW_CHECK, deterministic RNG,
// thread-pool parallelism knobs (Parallelism, SECFLOW_THREADS).
#include "base/error.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/units.h"

// Design entry and cell libraries.
#include "liberty/builtin_lib.h"
#include "liberty/liberty_parser.h"
#include "netlist/cell_library.h"
#include "netlist/netlist.h"
#include "synth/circuit.h"
#include "synth/hdl.h"

// The two flows of the paper (Fig 1) and their options/results.
#include "flow/flow.h"

// Batch evaluation: campaign specs, the DAG scheduler, the report.
#include "campaign/campaign.h"
#include "campaign/report.h"
#include "campaign/spec.h"

// Differential flow-fuzzer: random sequential designs, the metamorphic /
// security / cross-check oracle catalogue, reproducer minimization.
#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "fuzz/minimize.h"
#include "fuzz/oracles.h"
#include "fuzz/program.h"

// Netlist analysis and transformation helpers.
#include "netlist/netlist_ops.h"
#include "sta/sta.h"
#include "synth/techmap.h"
#include "wddl/wddl_library.h"

// Writers for standard interchange formats.
#include "lef/lef_io.h"
#include "netlist/verilog_parser.h"
#include "netlist/verilog_writer.h"
#include "pnr/def.h"

// Experiment toolkit: simulation, side-channel and fault analysis,
// reference cipher models.
#include "crypto/aes.h"
#include "crypto/des.h"
#include "sca/dfa.h"
#include "sca/dpa.h"
#include "sca/dpa_experiment.h"
#include "sca/ema.h"
#include "sca/selection.h"
#include "sca/trace_io.h"
#include "sim/power_sim.h"
#include "sim/trace_sim.h"

// Statistical leakage assessment: streaming accumulators, CPA, TVLA,
// guessing entropy and MTD estimation, and the leakage report.
#include "leakage/accumulators.h"
#include "leakage/assess.h"
#include "leakage/cpa.h"
#include "leakage/report.h"

// Observability: flow reports, structured logs, metrics, trace spans.
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
