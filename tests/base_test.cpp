#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "base/arg_parser.h"
#include "base/error.h"
#include "base/geometry.h"
#include "base/id.h"
#include "base/lexer.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/strings.h"
#include "base/units.h"

namespace secflow {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  try {
    SECFLOW_CHECK(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, ParseErrorCarriesLocation) {
  ParseError e("file.v line 3", "bad token");
  EXPECT_STREQ(e.what(), "file.v line 3: bad token");
  EXPECT_EQ(e.where(), "file.v line 3");
}

TEST(Id, DistinctTagsAreDistinctTypes) {
  struct TagA {};
  struct TagB {};
  Id<TagA> a(1);
  Id<TagB> b(1);
  static_assert(!std::is_same_v<decltype(a), decltype(b)>);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(Id<TagA>{}.valid());
  EXPECT_EQ(a.value(), 1);
}

TEST(Geometry, ManhattanDistance) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan({-2, 5}, {2, 1}), 8);
  EXPECT_EQ(manhattan({1, 1}, {1, 1}), 0);
}

TEST(Geometry, RectBasics) {
  Rect r{{0, 0}, {10, 20}};
  EXPECT_EQ(r.width(), 10);
  EXPECT_EQ(r.height(), 20);
  EXPECT_EQ(r.area(), 200);
  EXPECT_TRUE(r.contains({5, 5}));
  EXPECT_TRUE(r.contains({0, 0}));
  EXPECT_TRUE(r.contains({10, 20}));
  EXPECT_FALSE(r.contains({11, 5}));
  EXPECT_EQ(r.center(), (Point{5, 10}));
}

TEST(Geometry, RectOverlapAndInflate) {
  Rect a{{0, 0}, {10, 10}};
  Rect b{{5, 5}, {15, 15}};
  Rect c{{20, 20}, {30, 30}};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(a.inflated(15).overlaps(c));
  EXPECT_EQ(a.inflated(2), (Rect{{-2, -2}, {12, 12}}));
}

TEST(Geometry, SpanningNormalises) {
  EXPECT_EQ(Rect::spanning({5, 1}, {2, 9}), (Rect{{2, 1}, {5, 9}}));
}

TEST(Geometry, BoundingBox) {
  EXPECT_EQ(bounding_box({}), (Rect{}));
  EXPECT_EQ(bounding_box({{1, 2}, {-3, 9}, {4, 0}}),
            (Rect{{-3, 0}, {4, 9}}));
}

TEST(Geometry, SegmentOrientation) {
  Segment h{{0, 5}, {10, 5}, 0, 280};
  Segment v{{3, 0}, {3, 7}, 1, 280};
  EXPECT_TRUE(h.horizontal());
  EXPECT_FALSE(h.vertical());
  EXPECT_TRUE(v.vertical());
  EXPECT_EQ(h.length(), 10);
  EXPECT_EQ(v.length(), 7);
  EXPECT_EQ(h.translated(0, 2), (Segment{{0, 7}, {10, 7}, 0, 280}));
}

TEST(Geometry, IntervalOverlap) {
  EXPECT_EQ(interval_overlap(0, 10, 5, 15), 5);
  EXPECT_EQ(interval_overlap(10, 0, 15, 5), 5);  // unordered inputs
  EXPECT_EQ(interval_overlap(0, 4, 5, 9), 0);
  EXPECT_EQ(interval_overlap(0, 10, 2, 8), 6);
}

TEST(Geometry, ParallelRunLength) {
  Segment a{{0, 0}, {100, 0}, 1, 280};
  Segment b{{50, 560}, {150, 560}, 1, 280};
  std::int64_t sep = 0;
  EXPECT_EQ(parallel_run_length(a, b, &sep), 50);
  EXPECT_EQ(sep, 560);
  // Different layer: no coupling.
  Segment c{{50, 560}, {150, 560}, 2, 280};
  EXPECT_EQ(parallel_run_length(a, c), 0);
  // Perpendicular: no coupling.
  Segment d{{50, -10}, {50, 10}, 1, 280};
  EXPECT_EQ(parallel_run_length(a, d), 0);
}

TEST(Units, DbuRoundTrip) {
  EXPECT_EQ(um_to_dbu(0.56), 560);
  EXPECT_EQ(um_to_dbu(1.0), 1000);
  EXPECT_DOUBLE_EQ(dbu_to_um(560), 0.56);
  EXPECT_EQ(um_to_dbu(dbu_to_um(12345)), 12345);
}

TEST(Units, SamplingSpec) {
  SamplingSpec s;
  EXPECT_DOUBLE_EQ(s.cycle_s(), 8e-9);
  EXPECT_DOUBLE_EQ(s.sample_dt_s(), 1e-11);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng r(11);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = r.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, ForkIndependence) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Strings, Strfmt) {
  EXPECT_EQ(strfmt("%d/%s/%.2f", 3, "x", 1.5), "3/x/1.50");
  EXPECT_EQ(strfmt("empty"), "empty");
}

/// "<kind> <text> <line>:<column>" of a token, for compact checks.
std::string describe(const Token& t) {
  return std::to_string(static_cast<int>(t.kind)) + " " + std::string(t.text) +
         " " + std::to_string(t.pos.line) + ":" + std::to_string(t.pos.column);
}

/// The where() of the ParseError `fn` throws, or "no error".
template <typename Fn>
std::string where_of(Fn fn) {
  try {
    fn();
  } catch (const ParseError& e) {
    return e.where();
  }
  return "no error";
}

TEST(Lexer, TokensCarryLineAndColumn) {
  Lexer lex("module m; // c\n  a <= \\b$c  \"s t\"\n/* x\n */ 4'b01 1.5e-3",
            "t");
  using K = Token::Kind;
  const auto d = [](K k, const char* text, const char* pos) {
    return std::to_string(static_cast<int>(k)) + " " + text + " " + pos;
  };
  EXPECT_EQ(describe(lex.next()), d(K::kIdent, "module", "1:1"));
  EXPECT_EQ(describe(lex.next()), d(K::kIdent, "m", "1:8"));
  EXPECT_EQ(describe(lex.next()), d(K::kPunct, ";", "1:9"));
  EXPECT_EQ(describe(lex.next()), d(K::kIdent, "a", "2:3"));
  EXPECT_TRUE(lex.at("<="));
  EXPECT_EQ(describe(lex.next()), d(K::kPunct, "<=", "2:5"));
  EXPECT_EQ(describe(lex.next()), d(K::kIdent, "\\b$c", "2:8"));
  EXPECT_FALSE(lex.at("s t"));  // a string never reads as a keyword
  EXPECT_EQ(describe(lex.next()), d(K::kString, "s t", "2:14"));
  EXPECT_EQ(describe(lex.next()), d(K::kNumber, "4", "4:5"));
  EXPECT_EQ(describe(lex.next()), d(K::kPunct, "'", "4:6"));
  EXPECT_EQ(describe(lex.next()), d(K::kIdent, "b01", "4:7"));
  EXPECT_EQ(describe(lex.next()), d(K::kNumber, "1.5e-3", "4:11"));
  EXPECT_EQ(describe(lex.next()), d(K::kEnd, "", "4:17"));

  EXPECT_EQ(where_of([] {
              Lexer lex("x \"abc", "t");
              lex.next();
              lex.next();
            }),
            "t 1:3");
  EXPECT_EQ(where_of([] {
              Lexer lex("x\n /* abc", "t");
              lex.next();
              lex.next();
            }),
            "t 2:2");
  EXPECT_EQ(where_of([] { Lexer("a b", "t").expect("b"); }), "t 1:1");
}

TEST(Lexer, WordsAndRawBytes) {
  Lexer lex("NET a/b[0] -1.5\n5:x y\nEND", "t");
  lex.expect("NET");
  const Token name = lex.word();
  EXPECT_EQ(name.text, "a/b[0]");
  EXPECT_EQ(name.pos.column, 5);
  EXPECT_EQ(lex.number<double>(lex.word(), "value", -10.0, 10.0), -1.5);
  EXPECT_EQ(lex.number<std::size_t>("length", 0, 9), 5u);
  lex.expect(":");
  EXPECT_EQ(lex.take(3), "x y");
  EXPECT_EQ(describe(lex.next()), "1 END 3:1");
  EXPECT_EQ(lex.peek().kind, Token::Kind::kEnd);
  EXPECT_EQ(where_of([&] { lex.word(); }), "t 3:4");
  EXPECT_EQ(where_of([&] { lex.take(1); }), "t 3:4");
}

TEST(Lexer, NumbersParseWholeAndInRange) {
  Lexer lex("12 12abc 0x10 1e400 300 -1", "t");
  EXPECT_EQ(lex.number<int>("n", 0, 99), 12);
  EXPECT_EQ(where_of([&] { lex.number<int>("n", 0, 99); }), "t 1:4");
  EXPECT_EQ(where_of([&] { lex.number<int>("n", 0, 99); }), "t 1:10");
  EXPECT_EQ(where_of([&] { lex.number<double>(lex.word(), "x", 0, 1e9); }),
            "t 1:15");
  EXPECT_EQ(where_of([&] { lex.number<int>("n", 0, 99); }), "t 1:21");
  EXPECT_EQ(where_of([&] {
              lex.number<std::uint64_t>(lex.word(), "n", 0, 99);
            }),
            "t 1:25");
  EXPECT_EQ(SourcePos::of("ab\ncd", 4).column, 2);
  EXPECT_EQ(SourcePos::of("ab\ncd", 4).line, 2);
}

TEST(Parallel, ResolvedThreadsAlwaysPositive) {
  EXPECT_GE(Parallelism{}.resolved_threads(), 1);
  EXPECT_EQ((Parallelism{1}.resolved_threads()), 1);
  EXPECT_EQ((Parallelism{5}.resolved_threads()), 5);
  EXPECT_GE(default_thread_count(), 1);
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, Parallelism{threads}, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(Parallel, ExceptionPropagatesToCaller) {
  EXPECT_THROW(parallel_for(100, Parallelism{4},
                            [&](std::size_t, std::size_t) {
                              throw Error("boom in chunk");
                            }),
               Error);
  // The pool survives a throwing batch and runs subsequent work.
  std::atomic<int> ran{0};
  parallel_for(100, Parallelism{4}, [&](std::size_t b, std::size_t e) {
    ran.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ran.load(), 100);
}

TEST(Parallel, NestedCallsRunInlineWithoutDeadlock) {
  // Inner parallel_for on a pool worker must not wait on pool slots the
  // outer loop already occupies — it runs serial-inline instead.
  std::atomic<long> total{0};
  parallel_for(16, Parallelism{8}, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      parallel_for(50, Parallelism{8}, [&](std::size_t ib, std::size_t ie) {
        total.fetch_add(static_cast<long>(ie - ib));
      });
    }
  });
  EXPECT_EQ(total.load(), 16 * 50);
}

TEST(Rng, StreamsAreDeterministicAndIndependent) {
  // Same (seed, stream) -> same sequence.
  Rng a = Rng::stream(123, 7);
  Rng b = Rng::stream(123, 7);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // Different streams of one seed must not collide or correlate trivially.
  std::set<std::uint64_t> firsts;
  for (std::uint64_t s = 0; s < 256; ++s) {
    firsts.insert(Rng::stream(123, s).next_u64());
  }
  EXPECT_EQ(firsts.size(), 256u);
  // A different master seed reshuffles every stream.
  EXPECT_NE(Rng::stream(123, 0).next_u64(), Rng::stream(124, 0).next_u64());
}

// --- ArgParser ---------------------------------------------------------------

/// A parser with one option per numeric type, fed `args`.
ArgParser parse_numbers(std::vector<std::string> args) {
  ArgParser p("prog", "numeric options");
  p.option("n", "N", "an int").option("seed", "N", "a uint64");
  p.option("x", "X", "a double");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  p.parse(static_cast<int>(argv.size()), argv.data());
  return p;
}

/// The Error message of reading `--n value` as an int in [1, 100], or "".
std::string int_error(const std::string& value) {
  try {
    parse_numbers({"--n", value}).get_number("n", 7, 1, 100);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ArgParser, NumbersAcceptBothSpellingsAndFallBack) {
  const ArgParser p = parse_numbers({"--n", "42", "--x=2.5", "--seed=9"});
  EXPECT_EQ(p.get_number("n", 7, 1, 100), 42);
  EXPECT_DOUBLE_EQ(p.get_number("x", 0.0), 2.5);
  EXPECT_EQ(p.get_number<std::uint64_t>("seed", 1), 9u);

  const ArgParser none = parse_numbers({});
  EXPECT_EQ(none.get_number("n", 7, 1, 100), 7);
  EXPECT_EQ(none.get_number<std::uint64_t>("seed", 1), 1u);
  // A getter on an option that was never declared is a programming error.
  EXPECT_THROW(none.get_number("m", 0), Error);
}

TEST(ArgParser, NumbersMustParseWhole) {
  for (const char* bad : {"abc", "1e3", "12abc", "3.0", "", " 5", "+5",
                          "0x10"}) {
    const std::string msg = int_error(bad);
    EXPECT_NE(msg.find("'--n'"), std::string::npos) << bad << ": " << msg;
    EXPECT_NE(msg.find(std::string("got '") + bad + "'"), std::string::npos)
        << msg;
  }
  EXPECT_EQ(int_error("100"), "");

  const ArgParser p = parse_numbers({"--x", "1e3", "--seed", "-1"});
  EXPECT_DOUBLE_EQ(p.get_number("x", 0.0), 1000.0);  // exponents are fine
  EXPECT_THROW(p.get_number<std::uint64_t>("seed", 1), Error);  // no sign
  EXPECT_THROW(parse_numbers({"--x", "2.5mA"}).get_number("x", 0.0), Error);
}

TEST(ArgParser, NumbersAreRangeChecked) {
  EXPECT_EQ(int_error("1"), "");
  EXPECT_NE(int_error("0").find("needs an integer in [1, 100], got '0'"),
            std::string::npos)
      << int_error("0");
  EXPECT_NE(int_error("-5").find("got '-5'"), std::string::npos);
  EXPECT_NE(int_error("101").find("got '101'"), std::string::npos);
  // Beyond the type's own range too, never wrapped.
  EXPECT_NE(int_error("99999999999").find("got '99999999999'"),
            std::string::npos);
  EXPECT_THROW(parse_numbers({"--seed", "18446744073709551616"})
                   .get_number<std::uint64_t>("seed", 1),
               Error);
  EXPECT_EQ(parse_numbers({"--seed", "18446744073709551615"})
                .get_number<std::uint64_t>("seed", 1),
            18446744073709551615u);
  for (const char* bad : {"-0.5", "nan", "inf"}) {
    EXPECT_THROW(parse_numbers({"--x", bad}).get_number("x", 1.0, 0.0), Error)
        << bad;
  }
}

}  // namespace
}  // namespace secflow
