// Text serializers for every stage-boundary artifact that does not already
// have a flow format of its own (netlists round-trip through the Verilog
// writer/parser, layouts through the DEF writer/parser).
//
// Format contract, relied on by the cache keys and the golden-file tests:
//  * deterministic — map-backed containers are emitted in sorted order, so
//    the same value always produces the same bytes;
//  * save -> load -> save is byte-identical (doubles are printed with 17
//    significant digits, which round-trips IEEE-754 exactly);
//  * parsers fully validate and throw ParseError on malformed input.
#pragma once

#include <string>

#include "extract/extract.h"
#include "lec/lec.h"
#include "netlist/cell_library.h"
#include "pnr/check.h"
#include "pnr/route.h"
#include "sim/power_sim.h"
#include "sta/sta.h"
#include "wddl/cell_substitution.h"

namespace secflow {

/// Appends `v` as printf's "%.17g" — what an ostream at setprecision(17)
/// prints: 17 significant digits, which read back as the same double.
void append_double(std::string& out, double v);

/// Full-fidelity cell library (logic functions, pins, geometry, electrical
/// data) — enough to reparse a cached fat netlist without regenerating the
/// WDDL compound inventory.
std::string write_cell_library(const CellLibrary& lib);
CellLibrary parse_cell_library(const std::string& text);

/// Per-net parasitics (RC + coupling list).
std::string write_extraction(const Extraction& ex);
Extraction parse_extraction(const std::string& text);

/// Switched-capacitance table for the power simulator.
std::string write_cap_table(const CapTable& caps);
CapTable parse_cap_table(const std::string& text);

/// STA summary: critical path, period, per-net arrivals.
std::string write_timing_report(const TimingReport& r);
TimingReport parse_timing_report(const std::string& text);

std::string write_route_stats(const RouteStats& s);
RouteStats parse_route_stats(const std::string& text);

std::string write_substitution_stats(const SubstitutionStats& s);
SubstitutionStats parse_substitution_stats(const std::string& text);

std::string write_lec_result(const LecResult& r);
LecResult parse_lec_result(const std::string& text);

std::string write_check_result(const CheckResult& r);
CheckResult parse_check_result(const std::string& text);

}  // namespace secflow
