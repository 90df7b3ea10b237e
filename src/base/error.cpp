#include "base/error.h"

#include <sstream>

namespace secflow {

void throw_violations(const std::string& what,
                      const std::vector<std::string>& violations) {
  if (violations.empty()) return;
  if (violations.size() == 1) throw Error(what + ": " + violations[0]);
  std::string msg =
      what + ": " + std::to_string(violations.size()) + " violations:";
  for (const std::string& v : violations) msg += "\n  - " + v;
  throw Error(msg);
}

void check_failed(const char* file, int line, const char* expr,
                  const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": check failed: (" << expr << ") " << msg;
  throw Error(os.str());
}

}  // namespace secflow
