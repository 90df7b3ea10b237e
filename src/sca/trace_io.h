// CSV export for per-guess series, so DPA results can be plotted outside
// (gnuplot/python) in the same form as the paper's Fig 6.
#pragma once

#include <string>
#include <vector>

namespace secflow {

/// Write columns side by side: header `names`, then max(len) rows (short
/// columns padded with empty cells).  Throws Error on I/O failure.
void write_series_csv(const std::string& path,
                      const std::vector<std::string>& names,
                      const std::vector<std::vector<double>>& columns);

}  // namespace secflow
