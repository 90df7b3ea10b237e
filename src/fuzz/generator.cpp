#include "fuzz/generator.h"

#include <string>
#include <vector>

#include "base/rng.h"

namespace secflow {
namespace {

// Size limits of a generated design.
constexpr int kMaxWidth = 4;  ///< vectors are [W-1:0], W in [2, kMaxWidth]
constexpr int kMinInputs = 2;
constexpr int kMaxInputs = 4;
constexpr int kMaxOutputs = 3;
constexpr int kMaxRegs = 3;
constexpr int kMaxWires = 3;
constexpr int kMaxDepth = 3;  ///< expression tree depth
/// Probability a design is sequential (has >= 1 register).
constexpr double kSeqBias = 0.8;
/// Probability a sequential design gets a synchronous reset input.
constexpr double kResetBias = 0.5;

/// A signal the expression builder may reference, with the rank barrier
/// that prevents combinational loops: the assign producing rank r may only
/// read signals of rank < r.  Inputs and registers are rank 0 (a register
/// read is the *previous* cycle's value, so reading it never forms a
/// combinational cycle).
struct Avail {
  std::string name;
  int width = 1;
  int rank = 0;
};

class Generator {
 public:
  explicit Generator(std::uint64_t seed)
      : rng_(Rng::stream(seed, 0x66757a7aull /* "fuzz" */)) {}

  HdlModule run() {
    HdlModule p;
    p.name = "fz";
    width_ = 2 + static_cast<int>(rng_.next_below(
                     static_cast<std::uint64_t>(kMaxWidth - 1)));
    const bool sequential = rng_.next_double() < kSeqBias;
    const bool has_reset =
        sequential && rng_.next_double() < kResetBias;

    const int n_in = kMinInputs +
                     static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(
                         kMaxInputs - kMinInputs + 1)));
    if (has_reset) {
      p.inputs.push_back({"rst", 1});
      avail_.push_back({"rst", 1, 0});
    }
    for (int i = 0; i < n_in; ++i) {
      HdlSignal s{"in" + std::to_string(i), pick_width()};
      avail_.push_back({s.name, s.width, 0});
      p.inputs.push_back(std::move(s));
    }

    const int n_regs =
        sequential ? 1 + static_cast<int>(rng_.next_below(
                             static_cast<std::uint64_t>(kMaxRegs)))
                   : 0;
    for (int i = 0; i < n_regs; ++i) {
      HdlSignal s{"r" + std::to_string(i), pick_width()};
      avail_.push_back({s.name, s.width, 0});
      p.regs.push_back(std::move(s));
    }
    if (n_regs > 0) p.clock = "clk";

    // Wires at ranks 1..n_wires: wire k may read anything of lower rank.
    const int n_wires = static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(kMaxWires + 1)));
    for (int i = 0; i < n_wires; ++i) {
      HdlSignal s{"w" + std::to_string(i), pick_width()};
      drive(p, s, /*max_rank=*/i + 1, /*seq=*/false);
      avail_.push_back({s.name, s.width, i + 1});
      p.wires.push_back(std::move(s));
    }

    // Outputs sit above every wire; they may read anything.
    const int top = n_wires + 1;
    const int n_out = 1 + static_cast<int>(rng_.next_below(
                              static_cast<std::uint64_t>(kMaxOutputs)));
    for (int i = 0; i < n_out; ++i) {
      HdlSignal s{"out" + std::to_string(i), pick_width()};
      drive(p, s, top, /*seq=*/false);
      p.outputs.push_back(std::move(s));
    }

    // Register next-state logic; a reset design clears under rst.
    for (const auto& r : p.regs) {
      HdlExpr next = expr(r.width, top, kMaxDepth);
      if (has_reset) {
        HdlExpr mux;
        mux.kind = HdlExpr::Kind::kMux;
        mux.kids.push_back(ref_expr("rst", 1));
        mux.kids.push_back(const_expr(0, r.width));
        mux.kids.push_back(std::move(next));
        next = std::move(mux);
      }
      p.seq.push_back({r.name, -1, std::move(next)});
    }
    p.split_always = !p.seq.empty() && rng_.next_bool();
    return p;
  }

 private:
  int pick_width() { return rng_.next_below(3) == 0 ? 1 : width_; }

  /// Emit the assign(s) driving `s`: usually one whole-signal assign,
  /// sometimes one assign per bit (bit-granular driving is a distinct
  /// elaboration path worth fuzzing).
  void drive(HdlModule& p, const HdlSignal& s, int max_rank, bool seq) {
    auto& list = seq ? p.seq : p.comb;
    if (s.width > 1 && rng_.next_below(4) == 0) {
      for (int b = 0; b < s.width; ++b)
        list.push_back({s.name, b, expr(1, max_rank, kMaxDepth)});
    } else {
      list.push_back({s.name, -1, expr(s.width, max_rank, kMaxDepth)});
    }
  }

  HdlExpr const_expr(std::uint64_t value, int width) {
    HdlExpr e;
    e.kind = HdlExpr::Kind::kConst;
    e.width = width;
    e.value = value & ((width >= 64) ? ~0ull : ((1ull << width) - 1));
    return e;
  }

  HdlExpr ref_expr(const std::string& name, int /*width*/) {
    HdlExpr e;
    e.kind = HdlExpr::Kind::kRef;
    e.ref = name;
    return e;
  }

  /// A random leaf of the requested width readable below `max_rank`:
  /// a ref of matching width, a bit-select (scalar context only), or a
  /// constant as last resort.
  HdlExpr leaf(int width, int max_rank) {
    std::vector<const Avail*> full, wide;
    for (const auto& a : avail_) {
      if (a.rank >= max_rank) continue;
      if (a.width == width) full.push_back(&a);
      if (width == 1 && a.width > 1) wide.push_back(&a);
    }
    const std::size_t n = full.size() + wide.size();
    // Small constant probability keeps reconvergence interesting without
    // degenerating into constant folding.
    if (n == 0 || rng_.next_below(8) == 0)
      return const_expr(rng_.next_u64(), width);
    const std::size_t pick = rng_.next_below(n);
    if (pick < full.size()) return ref_expr(full[pick]->name, width);
    const Avail* a = wide[pick - full.size()];
    HdlExpr e;
    e.kind = HdlExpr::Kind::kBitSel;
    e.ref = a->name;
    e.bit = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(a->width)));
    return e;
  }

  HdlExpr expr(int width, int max_rank, int depth) {
    if (depth <= 0 || rng_.next_below(4) == 0) return leaf(width, max_rank);
    HdlExpr e;
    switch (rng_.next_below(5)) {
      case 0:
        e.kind = HdlExpr::Kind::kNot;
        e.kids.push_back(expr(width, max_rank, depth - 1));
        break;
      case 1:
        e.kind = HdlExpr::Kind::kAnd;
        break;
      case 2:
        e.kind = HdlExpr::Kind::kOr;
        break;
      case 3:
        e.kind = HdlExpr::Kind::kXor;
        break;
      case 4:
        e.kind = HdlExpr::Kind::kMux;
        e.kids.push_back(expr(1, max_rank, depth - 1));
        e.kids.push_back(expr(width, max_rank, depth - 1));
        e.kids.push_back(expr(width, max_rank, depth - 1));
        return e;
    }
    if (e.kids.empty()) {  // binary ops
      e.kids.push_back(expr(width, max_rank, depth - 1));
      e.kids.push_back(expr(width, max_rank, depth - 1));
    }
    return e;
  }

  Rng rng_;
  int width_ = 2;        ///< the design's vector width
  std::vector<Avail> avail_;
};

}  // namespace

HdlModule generate_program(std::uint64_t seed) {
  return Generator(seed).run();
}

}  // namespace secflow
