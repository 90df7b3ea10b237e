// Robustness sweep: every text-format parser must reject mutilated input
// with a clean ParseError/Error — never crash, hang or accept garbage
// silently.  Each valid document is truncated at every prefix length,
// mutated at single positions, and has each digit run replaced by numeric
// junk.  Then the strict-number cases, and the line:column every reader
// reports.
#include <gtest/gtest.h>

#include "base/error.h"
#include "campaign/report.h"
#include "campaign/spec.h"
#include "ckpt/serialize.h"
#include "leakage/report.h"
#include "lef/lef_io.h"
#include "liberty/builtin_lib.h"
#include "liberty/liberty_parser.h"
#include "netlist/verilog_parser.h"
#include "obs/json.h"
#include "obs/report.h"
#include "pnr/def.h"
#include "report_samples.h"
#include "synth/hdl.h"

namespace secflow {
namespace {

const char* kVerilog = R"(
module top (a, b, y);
  input a, b;
  output y;
  wire n1;
  NAND2 u1 (.A(a), .B(b), .Y(n1));
  INV u2 (.A(n1), .Y(y));
endmodule
)";

const char* kLiberty = R"(
library(mini) {
  cell(INV) {
    area : 6.0; width : 1.2; height : 5.0;
    pin(A) { direction : input; capacitance : 2.0; }
    pin(Y) { direction : output; function : "!A"; }
  }
}
)";

const char* kLef = R"(
VERSION 5.6 ;
LAYER M1
  DIRECTION HORIZONTAL ;
  PITCH 0.56 ;
  WIDTH 0.28 ;
END M1
MACRO INV
  SIZE 1.32 BY 5.04 ;
  PIN A DIRECTION INPUT ORIGIN 0.28 1.12 ;
  PIN Y DIRECTION OUTPUT ORIGIN 0.56 3.92 ;
END INV
END LIBRARY
)";

const char* kDef = R"(
DESIGN t ;
DIEAREA ( 0 0 ) ( 10000 8000 ) ;
ROWHEIGHT 5040 ;
TRACKPITCH 560 ;
COMPONENTS 1 ;
- u1 INV PLACED ( 560 0 ) ;
END COMPONENTS
NETS 1 ;
- n1
  ROUTED M1 280 ( 0 0 ) ( 1120 0 )
  VIA M1 M2 ( 1120 0 )
  ;
END NETS
END DESIGN
)";

const char* kCampaignSpec = R"({
  "schema": "secflow.campaign/1",
  "name": "sweep",
  "cache_dir": "ckpt",
  "threads": 2,
  "jobs": [
    {"name": "a", "circuit": {"builtin": "des-dpa"}, "flow": "secure",
     "seed": 7,
     "dpa": {"n_measurements": 400, "noise_ma": 0.5, "select_bit": 3,
             "sbox": 2, "key": 11},
     "options": {"route_mode": "quick", "shielded_pairs": false,
                 "place": {"seed": 5, "sa_batch": 8},
                 "route": {"via_cost": 4},
                 "extract": {"variation_sigma": 0.01}}},
    {"circuit": {"hdl": "module m(input a, output y); assign y = a; endmodule"},
     "flow": "regular",
     "options": {"stop_after": "placement"}}
  ]
})";

/// A valid secflow.flow-report/1 document, produced by the writer itself
/// so the sweep input can never drift from the schema.
std::string sample_flow_report_json() {
  FlowReport r;
  r.flow = "secure";
  r.design = "small";
  r.completed_through = "extraction";
  r.n_threads = 2;
  r.cells = 12;
  StageEntry e;
  e.name = "synthesis";
  e.ms = 1.25;
  e.cache = "miss";
  e.cache_key = "00000000deadbeef";
  r.stages.push_back(e);
  r.secure.present = true;
  r.secure.lec_equivalent = true;
  r.leakage.present = true;
  r.leakage.model = "hw";
  r.leakage.cpa_traces = 400;
  r.leakage.cpa_best_guess = 46;
  r.leakage.cpa_correct_rank = 1;
  r.leakage.cpa_disclosed = true;
  r.leakage.tvla_max_abs_t = 6.25;
  r.leakage.tvla_leaks = true;
  r.leakage.mtd = 200;
  r.leakage.mtd_max_traces = 600;
  r.metrics.counters["pnr.route.iterations"] = 2;
  return flow_report_json(r);
}

/// A valid secflow.leakage-report/1 document, produced by the writer
/// itself so the sweep input can never drift from the schema.
std::string sample_leakage_report_json() {
  LeakageReport r;
  r.flow = "secure";
  r.design = "des_dpa";
  r.seed = 2025;
  r.n_threads = 4;
  r.noise_ma = 0.6;
  r.tvla.present = true;
  r.tvla.n_fixed = 100;
  r.tvla.n_random = 100;
  r.tvla.n_samples = 800;
  r.tvla.max_abs_t = 18.3;
  r.tvla.leaky_samples = 12;
  r.tvla.leaks = true;
  r.cpa.present = true;
  r.cpa.model = "hw";
  r.cpa.n_traces = 400;
  r.cpa.best_guess = 2;
  r.cpa.best_score = 0.13;
  r.cpa.runner_up_score = 0.11;
  r.cpa.correct_key = 46;
  r.cpa.correct_rank = 36;
  r.ge.present = true;
  r.ge.n_campaigns = 2;
  r.ge.trace_grid = {100, 200, 400};
  r.ge.guessing_entropy = {12.0, 3.5, 1.0};
  r.ge.success_rate = {0.0, 0.5, 1.0};
  r.mtd.present = true;
  r.mtd.mtd = -1;
  r.mtd.max_traces = 600;
  r.mtd.step = 200;
  r.mtd.persist = 3;
  r.mtd.traces_fed = 600;
  r.mtd.checkpoints = {200, 400, 600};
  r.mtd.ranks = {40, 38, 36};
  r.trace_cache_hits = 3;
  r.trace_cache_misses = 7;
  return leakage_report_json(r);
}

const char* kHdl = R"(
module m (input clk, input [3:0] a, output [3:0] y);
  reg [3:0] r;
  always @(posedge clk) r <= a ^ r;
  assign y = r;
endmodule
)";

/// A fuzz program as emit_hdl() prints it.
const char* kFuzzProgram =
    "module fz (input clk, input [3:0] i0, input i1, output [3:0] o0, "
    "output o1);\n"
    "  wire [3:0] w0;\n"
    "  reg r0;\n"
    "  assign w0 = (i0 ^ 4'd9);\n"
    "  assign o0 = (i1 ? w0 : ~i0);\n"
    "  assign o1 = (w0[2] & r0);\n"
    "  always @(posedge clk) begin\n"
    "    r0 <= (i0[1] | 1'd1);\n"
    "  end\n"
    "endmodule\n";

/// A checkpoint payload with every field kind: length-prefixed string,
/// counts, flags, hex table, reals and names.
std::string sample_cell_library_payload() {
  return write_cell_library(*parse_liberty(kLiberty));
}

/// Parse every strict prefix; each must throw (or, for a few formats,
/// succeed when the suffix is ignorable) — never crash.
template <typename Fn>
void sweep_truncations(const std::string& doc, Fn parse) {
  for (std::size_t len = 0; len < doc.size(); len += 3) {
    try {
      parse(doc.substr(0, len));
    } catch (const Error&) {
      // expected for most prefixes
    }
  }
}

/// Mutate single characters; parser must throw or parse, never crash.
template <typename Fn>
void sweep_mutations(const std::string& doc, Fn parse) {
  const char kJunk[] = {'}', '(', ';', 'Z', '0', '\\'};
  for (std::size_t pos = 0; pos < doc.size(); pos += 7) {
    for (char j : kJunk) {
      std::string mutated = doc;
      mutated[pos] = j;
      try {
        parse(mutated);
      } catch (const Error&) {
      }
    }
  }
}

/// Replace each digit run, one at a time, with numeric junk: a number too
/// big for any integer, one too big for a double, a hex spelling and a
/// numeric prefix.  The parser must parse or throw Error — nothing else.
template <typename Fn>
void sweep_numeric_junk(const std::string& doc, Fn parse) {
  const char* const kJunk[] = {"99999999999999999999", "1e400", "0x10",
                               "12abc"};
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (!is_digit(doc[i])) continue;
    std::size_t end = i;
    while (end < doc.size() && is_digit(doc[end])) ++end;
    for (const char* junk : kJunk) {
      try {
        parse(doc.substr(0, i) + junk + doc.substr(end));
      } catch (const Error&) {
      }
    }
    i = end;
  }
}

TEST(ParserRobustness, Verilog) {
  const auto lib = builtin_stdcell018();
  auto parse = [&](const std::string& s) { parse_verilog(s, lib); };
  sweep_truncations(kVerilog, parse);
  sweep_mutations(kVerilog, parse);
  sweep_numeric_junk(kVerilog, parse);
}

TEST(ParserRobustness, Liberty) {
  auto parse = [](const std::string& s) { parse_liberty(s); };
  sweep_truncations(kLiberty, parse);
  sweep_mutations(kLiberty, parse);
  sweep_numeric_junk(kLiberty, parse);
}

TEST(ParserRobustness, Lef) {
  auto parse = [](const std::string& s) { parse_lef(s); };
  sweep_truncations(kLef, parse);
  sweep_mutations(kLef, parse);
  sweep_numeric_junk(kLef, parse);
}

TEST(ParserRobustness, Def) {
  auto parse = [](const std::string& s) { parse_def(s); };
  sweep_truncations(kDef, parse);
  sweep_mutations(kDef, parse);
  sweep_numeric_junk(kDef, parse);
}

TEST(ParserRobustness, Hdl) {
  auto parse = [](const std::string& s) { parse_hdl(s); };
  sweep_truncations(kHdl, parse);
  sweep_mutations(kHdl, parse);
  sweep_numeric_junk(kHdl, parse);
}

TEST(ParserRobustness, FuzzProgram) {
  auto parse = [](const std::string& s) { parse_hdl_module(s); };
  sweep_truncations(kFuzzProgram, parse);
  sweep_mutations(kFuzzProgram, parse);
  sweep_numeric_junk(kFuzzProgram, parse);
}

TEST(ParserRobustness, CheckpointPayload) {
  const std::string doc = sample_cell_library_payload();
  auto parse = [](const std::string& s) { parse_cell_library(s); };
  sweep_truncations(doc, parse);
  sweep_mutations(doc, parse);
  sweep_numeric_junk(doc, parse);
}

TEST(ParserRobustness, CampaignSpec) {
  auto parse = [](const std::string& s) { parse_campaign_spec(s); };
  sweep_truncations(kCampaignSpec, parse);
  sweep_mutations(kCampaignSpec, parse);
  sweep_numeric_junk(kCampaignSpec, parse);
}

TEST(ParserRobustness, FlowReport) {
  const std::string doc = sample_flow_report_json();
  auto parse = [](const std::string& s) { parse_flow_report(s); };
  sweep_truncations(doc, parse);
  sweep_mutations(doc, parse);
  sweep_numeric_junk(doc, parse);
}

TEST(ParserRobustness, LeakageReport) {
  const std::string doc = sample_leakage_report_json();
  auto parse = [](const std::string& s) { parse_leakage_report(s); };
  sweep_truncations(doc, parse);
  sweep_mutations(doc, parse);
  sweep_numeric_junk(doc, parse);
}

TEST(ParserRobustness, CampaignReport) {
  // The campaign reader also reads every embedded flow report.
  const std::string doc = campaign_report_json(report_samples::campaign());
  auto parse = [](const std::string& s) { parse_campaign_report(s); };
  sweep_truncations(doc, parse);
  sweep_mutations(doc, parse);
  sweep_numeric_junk(doc, parse);
}

TEST(ParserRobustness, ReportsRoundTripByteIdentical) {
  namespace samples = report_samples;
  for (const FlowReport& r : {samples::full_flow(), samples::bare_flow()}) {
    const std::string doc = flow_report_json(r);
    EXPECT_EQ(flow_report_json(parse_flow_report(doc)), doc);
  }
  for (const LeakageReport& r :
       {samples::full_leakage(), samples::bare_leakage()}) {
    const std::string doc = leakage_report_json(r);
    EXPECT_EQ(leakage_report_json(parse_leakage_report(doc)), doc);
  }
  const std::string leakage = sample_leakage_report_json();
  EXPECT_EQ(leakage_report_json(parse_leakage_report(leakage)), leakage);
  const std::string campaign = campaign_report_json(samples::campaign());
  EXPECT_EQ(campaign_report_json(parse_campaign_report(campaign)), campaign);
}

TEST(ParserRobustness, ValidDocumentsStillParse) {
  const auto lib = builtin_stdcell018();
  EXPECT_NO_THROW(parse_verilog(kVerilog, lib));
  EXPECT_NO_THROW(parse_liberty(kLiberty));
  EXPECT_NO_THROW(parse_lef(kLef));
  EXPECT_NO_THROW(parse_def(kDef));
  EXPECT_NO_THROW(parse_hdl(kHdl));
  EXPECT_EQ(emit_hdl(parse_hdl_module(kFuzzProgram)), kFuzzProgram);
  const std::string payload = sample_cell_library_payload();
  EXPECT_EQ(write_cell_library(parse_cell_library(payload)), payload);
  EXPECT_NO_THROW(parse_campaign_spec(kCampaignSpec));
  EXPECT_NO_THROW(parse_flow_report(sample_flow_report_json()));
  EXPECT_NO_THROW(parse_leakage_report(sample_leakage_report_json()));
  EXPECT_NO_THROW(
      parse_campaign_report(campaign_report_json(report_samples::campaign())));
}

/// `doc` with its one occurrence of `from` replaced by `to`.
std::string replaced(std::string doc, const std::string& from,
                     const std::string& to) {
  const std::size_t at = doc.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  EXPECT_EQ(doc.find(from, at + 1), std::string::npos) << from;
  return doc.replace(at, from.size(), to);
}

/// The where() of the ParseError `parse` throws, or "accepted".
template <typename Fn>
std::string parse_error_where(Fn parse) {
  try {
    parse();
  } catch (const ParseError& e) {
    return e.where();
  }
  return "accepted";
}

TEST(ParserRobustness, NumbersParseWholeAndInRange) {
  // Each input was accepted by the parent readers, or let
  // std::out_of_range escape from std::stoi / std::stoll.
  auto hdl = [](const std::string& s) { parse_hdl(s); };
  for (const char* body :
       {"(input [99999999999:0] a, output y); assign y = a[0];",
        "(input [3:0] a, output y); assign y = a[99999999999];",
        "(input a, output y); assign y = a ^ 99999999999'd1;",
        "(input [3:0] a, output [3:0] y); "
        "assign y = a ^ 4'd99999999999999999999999;",
        "(input [3:0] a, output [3:0] y); assign y = a ^ 4'b;"}) {
    const std::string doc = std::string("module m ") + body + " endmodule";
    EXPECT_THROW(hdl(doc), ParseError) << doc;
  }
  auto fuzz = [](const std::string& s) { parse_hdl_module(s); };
  EXPECT_THROW(fuzz(replaced(kFuzzProgram, "1'd1", "1'd99999999999999999999")),
               ParseError);
  EXPECT_THROW(fuzz(replaced(kFuzzProgram, "input [3:0] i0",
                             "input [99999999999999999999:0] i0")),
               ParseError);
  for (const auto& [from, to] :
       {std::pair{"DIEAREA ( 0 0 )", "DIEAREA ( 0xyz 0 )"},
        std::pair{"ROUTED M1", "ROUTED M0"},
        std::pair{"ROUTED M1", "ROUTED M1x"}}) {
    EXPECT_THROW(parse_def(replaced(kDef, from, to)), ParseError) << to;
  }
  for (const auto& [from, to] :
       {std::pair{"PITCH 0.56", "PITCH 0.56abc"},
        std::pair{"DIRECTION HORIZONTAL", "DIRECTION FOO"},
        std::pair{"A DIRECTION INPUT", "A DIRECTION INOUT"}}) {
    EXPECT_THROW(parse_lef(replaced(kLef, from, to)), ParseError) << to;
  }
  for (const auto& [from, to] :
       {std::pair{"area : 6.0", "area : 1-2"},
        std::pair{"width : 1.2", "width : 1.2.3"},
        std::pair{"height : 5.0", "height : 5e"}}) {
    EXPECT_THROW(parse_liberty(replaced(kLiberty, from, to)), ParseError)
        << to;
  }
}

TEST(ParserRobustness, ErrorsNameLineAndColumn) {
  auto hdl = [](const char* doc) {
    return parse_error_where([&] { parse_hdl(doc); });
  };
  // Parser: the token at fault.
  EXPECT_EQ(hdl("module m (input [3:0] a, output [3:0] y);\n"
                "  assign y = a ^ 4'b0121;\n"
                "endmodule"),
            "hdl 2:20");
  // Elaborator, tied to a statement or an expression.
  EXPECT_EQ(hdl("module m (input a, output y);\n"
                "  wire w;\n"
                "  assign y = a & b;\n"
                "endmodule"),
            "hdl 3:18");
  EXPECT_EQ(hdl("module m (input a, output y);\n"
                "  assign y = a;\n"
                "  assign y = ~a;\n"
                "endmodule"),
            "hdl 3:10");
  EXPECT_EQ(hdl("module m (input a, output y);\n"
                "  wire w;\n"
                "  assign w = y ^ a;\n"
                "  assign y = w;\n"
                "endmodule"),
            "hdl 3:14");
  // Elaborator, tied to a declaration.
  EXPECT_EQ(hdl("module m (input a, output y);\n"
                "  wire w;\n"
                "  assign y = a & w;\n"
                "endmodule"),
            "hdl 2:8");
  EXPECT_EQ(hdl("module m (input clk, input d, output [1:0] q);\n"
                "  reg [1:0] r;\n"
                "  always @(posedge clk) r[0] <= d;\n"
                "  assign q = r;\n"
                "endmodule"),
            "hdl 2:13");
  EXPECT_EQ(hdl("module m (input [1:0] clk, input d, output q);\n"
                "  reg r;\n"
                "  always @(posedge clk) r <= d;\n"
                "  assign q = r;\n"
                "endmodule"),
            "hdl 3:20");

  EXPECT_EQ(parse_error_where([] {
              parse_hdl_module("module fz (input i0, output o0);\n"
                               "  assign o0 = (i0 + i0);\n"
                               "endmodule\n");
            }),
            "hdl 2:19");
  const auto lib = builtin_stdcell018();
  EXPECT_EQ(parse_error_where([&] {
              parse_verilog("module m (a, y);\n"
                            "  input a;\n"
                            "  output y;\n"
                            "  INV u1 (.A(a), .Q(y));\n"
                            "endmodule\n",
                            lib);
            }),
            "verilog 4:19");
  EXPECT_EQ(parse_error_where([] {
              parse_liberty(replaced(kLiberty, "width : 1.2", "width : 1.2.3"));
            }),
            "liberty 4:25");
  EXPECT_EQ(parse_error_where([] {
              parse_lef(replaced(kLef, "PITCH 0.56", "PITCH 0.56abc"));
            }),
            "lef 5:9");
  EXPECT_EQ(parse_error_where([] {
              parse_def(replaced(kDef, "ROUTED M1", "ROUTED M0"));
            }),
            "def 11:11");
  EXPECT_EQ(parse_error_where([] {
              parse_timing_report("TIMING 1 2 3:abc\nPATH x\n");
            }),
            "ckpt:timing_report 2:6");
  EXPECT_EQ(parse_error_where([] { json_parse("{\n  \"a\": [1,, 2]\n}"); }),
            "json 2:11");
}

}  // namespace
}  // namespace secflow
