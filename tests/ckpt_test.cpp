// Unit tests for the checkpoint subsystem: content hashing, the artifact
// container, every stage serializer (save -> load -> save byte-identical;
// netlists additionally load back LEC-equivalent; doubles print as an
// ostream at setprecision(17) does), and the content-addressed store.
#include "ckpt/artifact.h"
#include "ckpt/fingerprint.h"
#include "ckpt/hash.h"
#include "ckpt/serialize.h"
#include "ckpt/store.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "base/error.h"
#include "lec/lec.h"
#include "liberty/builtin_lib.h"
#include "netlist/verilog_parser.h"
#include "netlist/verilog_writer.h"
#include "synth/hdl.h"
#include "synth/techmap.h"
#include "wddl/cell_substitution.h"
#include "wddl/wddl_library.h"

namespace secflow {
namespace {

namespace fs = std::filesystem;

// --- hashing ---------------------------------------------------------------

TEST(Hash, IsStableAcrossRuns) {
  // Pinned value: the cache keys on disk depend on this never changing.
  EXPECT_EQ(fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a("a"), Hasher().bytes("a", 1).digest());
  EXPECT_EQ(Hasher().add(std::uint64_t{1}).digest(),
            Hasher().add(std::uint64_t{1}).digest());
}

TEST(Hash, LengthPrefixPreventsConcatenationCollisions) {
  EXPECT_NE(Hasher().add("ab").add("c").digest(),
            Hasher().add("a").add("bc").digest());
  EXPECT_NE(Hasher().add("").add("x").digest(),
            Hasher().add("x").add("").digest());
}

TEST(Hash, DoublesHashByBitPattern) {
  EXPECT_EQ(Hasher().add(0.1).digest(), Hasher().add(0.1).digest());
  EXPECT_NE(Hasher().add(0.1).digest(), Hasher().add(0.2).digest());
  EXPECT_NE(Hasher().add(0.0).digest(), Hasher().add(-0.0).digest());
  EXPECT_NE(Hasher().add(1.0).digest(),
            Hasher().add(std::int64_t{1}).digest());
}

TEST(Hash, HexRoundTrips) {
  for (const std::uint64_t v : {0ull, 1ull, 0xdeadbeefcafef00dull,
                                ~0ull}) {
    const std::string hex = hash_hex(v);
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(parse_hash_hex(hex), v);
  }
  EXPECT_THROW(parse_hash_hex("xyz"), ParseError);
  EXPECT_THROW(parse_hash_hex("123"), ParseError);          // wrong width
  EXPECT_THROW(parse_hash_hex("00000000deadbeeZ"), ParseError);
}

// --- artifact container ----------------------------------------------------

Artifact sample_artifact() {
  Artifact a("routing", 0x1234abcd5678ef90ull);
  a.add("routed.def", "DESIGN x ;\nEND\n");
  a.add("route_stats", "ROUTESTATS 1 2 3 4\n");
  a.add("empty", "");
  return a;
}

TEST(ArtifactContainer, RoundTripsByteIdentical) {
  const Artifact a = sample_artifact();
  const std::string bytes = write_artifact(a);
  const Artifact b = parse_artifact(bytes);
  EXPECT_EQ(b.kind, a.kind);
  EXPECT_EQ(b.key, a.key);
  ASSERT_EQ(b.sections, a.sections);
  EXPECT_EQ(write_artifact(b), bytes);
}

TEST(ArtifactContainer, SectionLookup) {
  const Artifact a = sample_artifact();
  EXPECT_EQ(a.section("route_stats"), "ROUTESTATS 1 2 3 4\n");
  EXPECT_EQ(a.find_section("nope"), nullptr);
  EXPECT_THROW(a.section("nope"), Error);
}

TEST(ArtifactContainer, RejectsTruncationAtEveryByte) {
  // Chopping the container anywhere must throw, never return partial data.
  const std::string bytes = write_artifact(sample_artifact());
  for (std::size_t n = 0; n < bytes.size(); n += 7) {
    EXPECT_THROW(parse_artifact(bytes.substr(0, n)), ParseError)
        << "prefix of " << n << " bytes parsed";
  }
}

TEST(ArtifactContainer, RejectsCorruption) {
  const std::string bytes = write_artifact(sample_artifact());
  // Flip one payload byte: framing still parses, checksum must catch it.
  std::string flipped = bytes;
  flipped[bytes.find("DESIGN x")] = 'Z';
  EXPECT_THROW(parse_artifact(flipped), ParseError);
  // Unknown keyword.
  EXPECT_THROW(parse_artifact("SECFLOW-CKPT 1 k 0000000000000000\nBOGUS\n"),
               ParseError);
  // Not a checkpoint file at all.
  EXPECT_THROW(parse_artifact("v1.0 design\n"), ParseError);
  EXPECT_THROW(parse_artifact(""), ParseError);
}

TEST(ArtifactContainer, RejectsVersionSkew) {
  std::string bytes = write_artifact(sample_artifact());
  bytes.replace(bytes.find(" 1 "), 3, " 99 ");
  EXPECT_THROW(parse_artifact(bytes), ParseError);
}

// --- serializer round trips ------------------------------------------------

/// save -> load -> save must be byte-identical: the golden-file tests and
/// the "hit produces the same artifact" guarantee both stand on this.
template <typename T, typename W, typename P>
void expect_second_generation_identical(const T& value, W write, P parse) {
  const std::string bytes = write(value);
  const T loaded = parse(bytes);
  EXPECT_EQ(write(loaded), bytes);
}

TEST(Serialize, CellLibraryRoundTrips) {
  const auto lib = builtin_stdcell018();
  expect_second_generation_identical(*lib, write_cell_library,
                                     parse_cell_library);
  const CellLibrary back = parse_cell_library(write_cell_library(*lib));
  EXPECT_EQ(back.size(), lib->size());
  for (const CellTypeId id : lib->all()) {
    const CellType& a = lib->cell(id);
    const CellType& b = back.cell(back.find(a.name));
    EXPECT_EQ(b.kind, a.kind);
    EXPECT_EQ(b.function, a.function);
    EXPECT_EQ(b.pins.size(), a.pins.size());
    EXPECT_EQ(b.area_um2, a.area_um2);            // exact, not near
    EXPECT_EQ(b.intrinsic_delay_ps, a.intrinsic_delay_ps);
    EXPECT_EQ(b.drive_res_kohm, a.drive_res_kohm);
    EXPECT_EQ(b.negedge_clock, a.negedge_clock);
  }
}

TEST(Serialize, FatCellLibraryRoundTrips) {
  // The substitution checkpoint serializes the lazily-built fat library;
  // compound cells (wide SOP functions, multi-pin) must survive exactly.
  const auto lib = builtin_stdcell018();
  const AigCircuit c = parse_hdl(R"(
    module m (input a, input b, input s, output y, output z);
      assign y = s ? (a & b) : (a ^ b);
      assign z = ~(a | s);
    endmodule)");
  SynthConstraints sc;
  sc.allowed_cells = {"NAND2", "NOR2", "XOR2", "AOI22", "OAI21", "MUX2"};
  const Netlist rtl = technology_map(c, lib, sc);
  WddlLibrary wlib(lib);
  const SubstitutionResult sub = substitute_cells(rtl, wlib);
  expect_second_generation_identical(*wlib.fat_library(), write_cell_library,
                                     parse_cell_library);
  // A reparsed fat library must still parse the fat netlist it came with.
  const auto fat_lib = std::make_shared<const CellLibrary>(
      parse_cell_library(write_cell_library(*wlib.fat_library())));
  const Netlist refat = parse_verilog(write_verilog(sub.fat), fat_lib);
  EXPECT_EQ(refat.n_instances(), sub.fat.n_instances());
}

TEST(Serialize, NetlistLoadsBackLecEquivalent) {
  const auto lib = builtin_stdcell018();
  const AigCircuit c = parse_hdl(R"(
    module m (input a, input b, input cin, output s, output cout);
      assign s = a ^ b ^ cin;
      assign cout = (a & b) | (cin & (a ^ b));
    endmodule)");
  const Netlist rtl = technology_map(c, lib, {});
  const std::string v = write_verilog(rtl);
  const Netlist back = parse_verilog(v, lib);
  back.validate();
  EXPECT_EQ(write_verilog(back), v);  // byte-identical second generation
  const LecResult lec = check_equivalence(rtl, back);
  EXPECT_TRUE(lec.equivalent);
  EXPECT_GT(lec.compared_points, 0);
}

TEST(Serialize, ExtractionRoundTrips) {
  Extraction ex;
  NetParasitics a;
  a.wire_cap_ff = 1.25;
  a.pin_cap_ff = 0.1;
  a.coupling_cap_ff = 0.7500000000000001;  // needs all 17 digits
  a.res_kohm = 0.033;
  a.couplings = {{"n2", 0.5}, {"n3", 0.25}};
  ex.nets["n1"] = a;
  ex.nets["n2"] = NetParasitics{};
  expect_second_generation_identical(ex, write_extraction, parse_extraction);
  const Extraction back = parse_extraction(write_extraction(ex));
  ASSERT_EQ(back.nets.size(), 2u);
  EXPECT_EQ(back.nets.at("n1").coupling_cap_ff, a.coupling_cap_ff);
  ASSERT_EQ(back.nets.at("n1").couplings.size(), 2u);
  EXPECT_EQ(back.nets.at("n1").couplings[0].first, "n2");
}

TEST(Serialize, CapTableRoundTrips) {
  CapTable caps{{"x", 1.5}, {"clk", 0.1}, {"y_t", 2.7182818284590452}};
  expect_second_generation_identical(caps, write_cap_table, parse_cap_table);
  const CapTable back = parse_cap_table(write_cap_table(caps));
  EXPECT_EQ(back, caps);
}

TEST(Serialize, TimingReportRoundTrips) {
  TimingReport r;
  r.critical_delay_ps = 1234.5678;
  r.min_period_ps = 2469.1356;
  r.endpoint = "net with spaces";
  r.critical_path = {{"u1", "n1", 10.5}, {"", "n2", 20.25}};
  r.net_arrival_ps = {0.0, 1.5, 33.25};
  expect_second_generation_identical(r, write_timing_report,
                                     parse_timing_report);
  const TimingReport back = parse_timing_report(write_timing_report(r));
  EXPECT_EQ(back.endpoint, r.endpoint);
  ASSERT_EQ(back.critical_path.size(), 2u);
  EXPECT_EQ(back.critical_path[1].instance, "");
  EXPECT_EQ(back.net_arrival_ps, r.net_arrival_ps);
}

TEST(Serialize, SmallStructsRoundTrip) {
  RouteStats rs;
  rs.wirelength_dbu = 123456789012345ll;
  rs.vias = 42;
  rs.nets_routed = 7;
  rs.iterations = 3;
  rs.expanded_nodes = 987654321098ll;
  rs.window_escalations = 11;
  rs.full_grid_searches = 2;
  rs.nets_ripped = 5001;
  expect_second_generation_identical(rs, write_route_stats,
                                     parse_route_stats);
  EXPECT_EQ(parse_route_stats(write_route_stats(rs)).wirelength_dbu,
            rs.wirelength_dbu);

  SubstitutionStats ss;
  ss.inverters_removed = 5;
  ss.gates_substituted = 9;
  ss.port_buffers_added = 2;
  expect_second_generation_identical(ss, write_substitution_stats,
                                     parse_substitution_stats);

  LecResult lec;
  lec.equivalent = false;
  lec.compared_points = 12;
  lec.mismatches = {{"output y differs", "a=1 b=0"}};
  expect_second_generation_identical(lec, write_lec_result,
                                     parse_lec_result);
  EXPECT_EQ(parse_lec_result(write_lec_result(lec)).mismatches[0].what,
            "output y differs");

  CheckResult cr;
  cr.ok = true;
  cr.nets_checked = 31;
  cr.pins_checked = 77;
  expect_second_generation_identical(cr, write_check_result,
                                     parse_check_result);
}

TEST(Serialize, DoubleFormatterPrintsWhatAStreamAtPrecision17Prints) {
  // The serializers print doubles with to_chars; the checkpoint bytes (and
  // so the golden hashes and cache keys of every stored artifact) were
  // written by an ostream at setprecision(17) and must not change.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0, -0.0, kInf, -kInf, kNan, -kNan,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 1e300, -1e300, 1e-300, -1e-300,
      0.1, 1.0 / 3.0, 0.7500000000000001, 2.7182818284590452, 1e16, 1e17,
      9007199254740993.0, 123456789012345678.0};
  for (int i = -1000; i <= 1000; ++i) values.push_back(i);
  for (int e = -320; e <= 308; ++e) values.push_back(std::pow(10.0, e));
  std::mt19937_64 bits(2025);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(std::bit_cast<double>(bits()));
  }
  for (const double v : values) {
    std::ostringstream os;
    os << std::setprecision(17) << v;
    std::string text;
    append_double(text, v);
    ASSERT_EQ(text, os.str()) << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(Serialize, ParsersRejectMalformedInput) {
  // Wrong magic keyword.
  EXPECT_THROW(parse_cap_table("EXTRACTION 0\n"), ParseError);
  // Truncated mid-record.
  EXPECT_THROW(parse_cap_table("CAPTABLE 2\nCAP x 1.0\n"), ParseError);
  EXPECT_THROW(parse_extraction("EXTRACTION 1\nNET n 1 2 3"), ParseError);
  EXPECT_THROW(parse_route_stats("ROUTESTATS 1 2 3 4 5"), ParseError);
  // Trailing garbage.
  EXPECT_THROW(parse_route_stats("ROUTESTATS 1 2 3 4 5 6 7 8 9\n"),
               ParseError);
  // Non-boolean flag.
  EXPECT_THROW(parse_lec_result("LEC 2 0 0\n"), ParseError);
  // Bad sized-string framing.
  EXPECT_THROW(parse_timing_report("TIMING 1 2 99:short\nPATH 0\n"
                                   "ARRIVALS 0\n"),
               ParseError);
  // Duplicate net.
  EXPECT_THROW(parse_cap_table("CAPTABLE 2\nCAP x 1\nCAP x 2\n"),
               ParseError);
  // Cell library with an out-of-range kind.
  EXPECT_THROW(parse_cell_library("CELLLIB 1:l 1\nCELL X 9 0 1 "
                                  "0000000000000002 1 1 1 1 1 1 0\n"),
               ParseError);
}

// --- content-addressed store -----------------------------------------------

class StoreTest : public ::testing::Test {
 protected:
  // ctest runs every case as its own process, possibly in parallel, so
  // each case gets its own directory.
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("ckpt_store_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(StoreTest, SaveLoadRoundTrips) {
  ArtifactStore store(dir_.string());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.contains("routing", 7));
  EXPECT_EQ(store.load("routing", 7), std::nullopt);

  Artifact a("routing", 7);
  a.add("routed.def", "bytes");
  store.save(a);
  EXPECT_TRUE(store.contains("routing", 7));
  EXPECT_EQ(store.size(), 1u);
  const auto b = store.load("routing", 7);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->section("routed.def"), "bytes");
  // Different stage or key: distinct address, no entry.
  EXPECT_FALSE(store.contains("placement", 7));
  EXPECT_FALSE(store.contains("routing", 8));
}

TEST_F(StoreTest, PathEncodesStageAndKey) {
  ArtifactStore store(dir_.string());
  const std::string p = store.path_for("synthesis", 0xabcull);
  EXPECT_NE(p.find("synthesis-0000000000000abc.ckpt"), std::string::npos);
}

TEST_F(StoreTest, CorruptEntryReadsAsMiss) {
  ArtifactStore store(dir_.string());
  Artifact a("synthesis", 3);
  a.add("rtl.v", "module m; endmodule");
  store.save(a);
  // Truncate the file on disk: load degrades to a miss (recompute), while
  // the strict parser reports the corruption.
  const std::string path = store.path_for("synthesis", 3);
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_EQ(store.load("synthesis", 3), std::nullopt);
  EXPECT_THROW(parse_artifact_file(path), ParseError);
}

TEST_F(StoreTest, MislabeledEntryReadsAsMiss) {
  ArtifactStore store(dir_.string());
  Artifact a("synthesis", 3);
  a.add("rtl.v", "x");
  // A valid artifact parked under the wrong address must not be served.
  fs::create_directories(dir_);
  write_artifact_file(a, store.path_for("routing", 9));
  EXPECT_EQ(store.load("routing", 9), std::nullopt);
}

// --- fingerprints ----------------------------------------------------------

TEST(Fingerprint, CircuitAndLibraryAreStructural) {
  const auto lib = builtin_stdcell018();
  const AigCircuit a = parse_hdl(
      "module m (input a, input b, output y); assign y = a & b; endmodule");
  const AigCircuit a2 = parse_hdl(
      "module m (input a, input b, output y); assign y = a & b; endmodule");
  const AigCircuit b = parse_hdl(
      "module m (input a, input b, output y); assign y = a | b; endmodule");
  EXPECT_EQ(fingerprint(a), fingerprint(a2));  // same text, same hash
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_EQ(fingerprint(*lib), fingerprint(*builtin_stdcell018()));
}

}  // namespace
}  // namespace secflow
