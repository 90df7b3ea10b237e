#include "fuzz/minimize.h"

#include <algorithm>
#include <set>

#include "base/error.h"

namespace secflow {
namespace {

void collect_refs(const HdlExpr& e, std::set<std::string>& out) {
  if (!e.ref.empty()) out.insert(e.ref);
  for (const auto& k : e.kids) collect_refs(k, out);
}

/// Every signal referenced on a right-hand side or as a target.
std::set<std::string> used_signals(const HdlModule& p) {
  std::set<std::string> out;
  for (const auto* stmts : {&p.comb, &p.seq})
    for (const auto& st : *stmts) {
      out.insert(st.target);
      collect_refs(st.rhs, out);
    }
  return out;
}

void substitute_ref(HdlExpr& e, const std::string& name,
                    const HdlExpr& repl) {
  if (e.ref == name &&
      (e.kind == HdlExpr::Kind::kRef || e.kind == HdlExpr::Kind::kBitSel)) {
    // A bit-select of the replaced signal collapses to the replacement
    // only when the replacement is scalar-compatible; the caller passes a
    // constant, which we re-width here.
    HdlExpr r = repl;
    if (e.kind == HdlExpr::Kind::kBitSel && r.kind == HdlExpr::Kind::kConst)
      r.width = 1;
    e = std::move(r);
    return;
  }
  for (auto& k : e.kids) substitute_ref(k, name, repl);
}

HdlExpr const0(int width) {
  HdlExpr e;
  e.kind = HdlExpr::Kind::kConst;
  e.width = width;
  e.value = 0;
  return e;
}

// --- expression node addressing (pre-order) ---------------------------------

int count_nodes(const HdlExpr& e) {
  int n = 1;
  for (const auto& k : e.kids) n += count_nodes(k);
  return n;
}

/// Pre-order node `idx` of `e`, plus the width of its context (root width
/// given by the caller; mux conditions and bit-selects are scalar).
struct NodeAt {
  HdlExpr* node = nullptr;
  int width = 0;
};

NodeAt find_node(HdlExpr& e, int& idx, int width) {
  if (idx == 0) return {&e, width};
  --idx;
  for (std::size_t k = 0; k < e.kids.size(); ++k) {
    const int kid_width =
        (e.kind == HdlExpr::Kind::kMux && k == 0) ? 1 : width;
    NodeAt r = find_node(e.kids[k], idx, kid_width);
    if (r.node) return r;
  }
  return {};
}

class Minimizer {
 public:
  Minimizer(const HdlModule& p,
            const std::function<bool(const HdlModule&)>& pred,
            int max_attempts)
      : cur_(p), pred_(pred), max_attempts_(max_attempts) {}

  MinimizeResult run() {
    MinimizeResult res;
    res.initial_lines = hdl_line_count(cur_);
    bool changed = true;
    while (changed && !exhausted()) {
      changed = false;
      changed |= drop_outputs();
      changed |= regs_to_inputs();
      changed |= eliminate_wires();
      changed |= shrink_exprs();
      changed |= drop_unused_inputs();
      changed |= scalarize();
    }
    res.program = cur_;
    res.attempts = attempts_;
    res.final_lines = hdl_line_count(res.program);
    return res;
  }

 private:
  bool exhausted() const { return attempts_ >= max_attempts_; }

  /// One predicate evaluation; commits `cand` when it still fails.
  bool accept(const HdlModule& cand) {
    if (exhausted()) return false;
    ++attempts_;
    if (!pred_(cand)) return false;
    cur_ = cand;
    return true;
  }

  bool drop_outputs() {
    bool any = false;
    for (std::size_t i = cur_.outputs.size(); i-- > 0;) {
      if (cur_.outputs.size() <= 1 || exhausted()) break;
      HdlModule cand = cur_;
      const std::string name = cand.outputs[i].name;
      cand.outputs.erase(cand.outputs.begin() + i);
      std::erase_if(cand.comb,
                    [&](const HdlStmt& st) { return st.target == name; });
      any |= accept(cand);
    }
    return any;
  }

  /// A register becomes a free input: its next-state logic disappears and
  /// every reader keeps a legal signal to read.
  bool regs_to_inputs() {
    bool any = false;
    for (std::size_t i = cur_.regs.size(); i-- > 0;) {
      if (exhausted()) break;
      HdlModule cand = cur_;
      HdlSignal reg = cand.regs[i];
      cand.regs.erase(cand.regs.begin() + i);
      std::erase_if(cand.seq,
                    [&](const HdlStmt& st) { return st.target == reg.name; });
      cand.inputs.push_back(reg);
      if (cand.regs.empty()) {
        cand.clock.clear();
        cand.split_always = false;
      }
      any |= accept(cand);
    }
    return any;
  }

  /// Replace every read of a wire with 0 and delete its declaration and
  /// drivers.
  bool eliminate_wires() {
    bool any = false;
    for (std::size_t i = cur_.wires.size(); i-- > 0;) {
      if (exhausted()) break;
      HdlModule cand = cur_;
      const HdlSignal wire = cand.wires[i];
      cand.wires.erase(cand.wires.begin() + i);
      std::erase_if(cand.comb,
                    [&](const HdlStmt& st) { return st.target == wire.name; });
      const HdlExpr zero = const0(wire.width);
      for (auto* stmts : {&cand.comb, &cand.seq})
        for (auto& st : *stmts) substitute_ref(st.rhs, wire.name, zero);
      any |= accept(cand);
    }
    return any;
  }

  bool drop_unused_inputs() {
    bool any = false;
    const std::set<std::string> used = used_signals(cur_);
    for (std::size_t i = cur_.inputs.size(); i-- > 0;) {
      if (cur_.inputs.size() <= 1 || exhausted()) break;
      if (used.count(cur_.inputs[i].name)) continue;
      HdlModule cand = cur_;
      cand.inputs.erase(cand.inputs.begin() + i);
      any |= accept(cand);
    }
    return any;
  }

  /// Hill-climb every statement's expression: try to replace each node by
  /// a same-width child, then by constant 0.
  bool shrink_exprs() {
    bool any = false;
    for (auto* stmts : {&cur_.comb, &cur_.seq}) {
      for (std::size_t s = 0; s < stmts->size(); ++s) {
        int idx = 0;
        while (!exhausted()) {
          // Re-resolve against cur_ every iteration: accept() replaces it.
          auto& live = (stmts == &cur_.comb ? cur_.comb : cur_.seq);
          if (s >= live.size()) break;
          HdlStmt& st = live[s];
          const int root_w = st.target_bit >= 0
                                 ? 1
                                 : std::max(1, signal_width(cur_, st.target));
          if (idx >= count_nodes(st.rhs)) break;
          bool replaced = false;
          for (const HdlExpr& cand_repl : candidates(st.rhs, idx, root_w)) {
            HdlModule cand = cur_;
            auto& cstmts = (stmts == &cur_.comb ? cand.comb : cand.seq);
            int j = idx;
            NodeAt at = find_node(cstmts[s].rhs, j, root_w);
            *at.node = cand_repl;
            if (accept(cand)) {
              replaced = true;
              any = true;
              break;
            }
            if (exhausted()) break;
          }
          // On success re-try the same index (the subtree changed);
          // otherwise move on.
          if (!replaced) ++idx;
        }
      }
    }
    return any;
  }

  std::vector<HdlExpr> candidates(HdlExpr& root, int idx, int root_w) {
    int j = idx;
    NodeAt at = find_node(root, j, root_w);
    std::vector<HdlExpr> out;
    if (!at.node) return out;
    const HdlExpr& e = *at.node;
    switch (e.kind) {
      case HdlExpr::Kind::kNot:
        out.push_back(e.kids[0]);
        break;
      case HdlExpr::Kind::kAnd:
      case HdlExpr::Kind::kOr:
      case HdlExpr::Kind::kXor:
        out.push_back(e.kids[0]);
        out.push_back(e.kids[1]);
        break;
      case HdlExpr::Kind::kMux:
        out.push_back(e.kids[1]);
        out.push_back(e.kids[2]);
        break;
      case HdlExpr::Kind::kConst:
        return out;  // already minimal; constant-0 attempt below is a dup
      case HdlExpr::Kind::kRef:
      case HdlExpr::Kind::kBitSel:
        break;
    }
    if (!(e.kind == HdlExpr::Kind::kConst && e.value == 0))
      out.push_back(const0(at.width));
    return out;
  }

  /// Collapse every vector to 1 bit in one shot: decls become scalar,
  /// bit-selects become plain refs, per-bit assigns fold to bit 0.
  bool scalarize() {
    bool vectors = false;
    for (const auto* v : {&cur_.inputs, &cur_.outputs, &cur_.wires,
                          &cur_.regs})
      for (const auto& s : *v) vectors |= s.width > 1;
    if (!vectors || exhausted()) return false;

    HdlModule cand = cur_;
    for (auto* v : {&cand.inputs, &cand.outputs, &cand.wires, &cand.regs})
      for (auto& s : *v) s.width = 1;
    for (auto* stmts : {&cand.comb, &cand.seq}) {
      // Per-bit assigns to one signal collapse to the bit-0 statement.
      std::erase_if(*stmts,
                    [](const HdlStmt& st) { return st.target_bit > 0; });
      for (auto& st : *stmts) {
        st.target_bit = -1;
        scalarize_expr(st.rhs);
      }
    }
    return accept(cand);
  }

  static void scalarize_expr(HdlExpr& e) {
    if (e.kind == HdlExpr::Kind::kBitSel) {
      e.kind = HdlExpr::Kind::kRef;
      e.bit = 0;
    } else if (e.kind == HdlExpr::Kind::kConst) {
      e.value &= 1;
      e.width = 1;
    }
    for (auto& k : e.kids) scalarize_expr(k);
  }

  HdlModule cur_;
  const std::function<bool(const HdlModule&)>& pred_;
  int max_attempts_;
  int attempts_ = 0;
};

}  // namespace

MinimizeResult minimize_program(
    const HdlModule& p,
    const std::function<bool(const HdlModule&)>& still_fails,
    int max_attempts) {
  SECFLOW_CHECK(still_fails(p),
                "minimize_program: predicate does not hold on the input");
  return Minimizer(p, still_fails, max_attempts).run();
}

}  // namespace secflow
