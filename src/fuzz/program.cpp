#include "fuzz/program.h"

#include <algorithm>
#include <map>
#include <set>

#include "base/rng.h"

namespace secflow {
namespace {

/// Fisher–Yates with the repo's deterministic Rng.
template <typename T>
void shuffle_vec(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

void rename_in_expr(HdlExpr& e,
                    const std::map<std::string, std::string>& table) {
  if (!e.ref.empty()) {
    auto it = table.find(e.ref);
    if (it != table.end()) e.ref = it->second;
  }
  for (auto& k : e.kids) rename_in_expr(k, table);
}

}  // namespace

int hdl_line_count(const HdlModule& p) {
  const std::string text = emit_hdl(p);
  return static_cast<int>(std::count(text.begin(), text.end(), '\n'));
}

int signal_width(const HdlModule& p, const std::string& name) {
  for (const auto* v : {&p.inputs, &p.outputs, &p.wires, &p.regs})
    for (const auto& s : *v)
      if (s.name == name) return s.width;
  return 0;
}

HdlModule rename_wires(const HdlModule& p, std::uint64_t seed) {
  HdlModule out = p;
  Rng rng(seed);
  std::map<std::string, std::string> table;
  std::set<std::string> taken;
  for (const auto* v : {&p.inputs, &p.outputs, &p.regs})
    for (const auto& s : *v) taken.insert(s.name);
  taken.insert(p.clock);
  for (auto& s : out.wires) {
    std::string fresh;
    do {
      fresh = "mw" + std::to_string(rng.next_below(100000));
    } while (!taken.insert(fresh).second);
    table[s.name] = fresh;
    s.name = fresh;
  }
  for (auto* stmts : {&out.comb, &out.seq})
    for (auto& st : *stmts) {
      auto it = table.find(st.target);
      if (it != table.end()) st.target = it->second;
      rename_in_expr(st.rhs, table);
    }
  return out;
}

HdlModule shuffle_statements(const HdlModule& p, std::uint64_t seed) {
  HdlModule out = p;
  Rng rng(seed);
  shuffle_vec(out.wires, rng);
  shuffle_vec(out.comb, rng);
  shuffle_vec(out.seq, rng);
  out.split_always = rng.next_bool();
  return out;
}

HdlModule permute_ports(const HdlModule& p, std::uint64_t seed) {
  HdlModule out = p;
  Rng rng(seed);
  shuffle_vec(out.inputs, rng);
  shuffle_vec(out.outputs, rng);
  return out;
}

}  // namespace secflow
