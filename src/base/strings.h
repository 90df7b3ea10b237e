// printf-style formatting into a std::string (WDDL cell names).
#pragma once

#include <string>

namespace secflow {

/// printf-style formatting into a std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace secflow
