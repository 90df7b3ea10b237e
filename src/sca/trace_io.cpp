#include "sca/trace_io.h"

#include <algorithm>
#include <fstream>

#include "base/error.h"

namespace secflow {

void write_series_csv(const std::string& path,
                      const std::vector<std::string>& names,
                      const std::vector<std::vector<double>>& columns) {
  SECFLOW_CHECK(names.size() == columns.size(),
                "series names/columns mismatch");
  std::ofstream f(path);
  SECFLOW_CHECK(f.good(), "cannot open for write: " + path);
  for (std::size_t i = 0; i < names.size(); ++i) {
    f << (i ? "," : "") << names[i];
  }
  f << '\n';
  std::size_t rows = 0;
  for (const auto& c : columns) rows = std::max(rows, c.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      if (i) f << ',';
      if (r < columns[i].size()) f << columns[i][r];
    }
    f << '\n';
  }
  SECFLOW_CHECK(f.good(), "write failed: " + path);
}

}  // namespace secflow
