// Leveled, thread-safe structured logging for the flow.
//
// Library code logs through Logger::global() instead of printing to
// stderr, so verbosity is one knob (`SECFLOW_LOG` environment variable,
// or Logger::global().set_level(), which the CLI's --log calls) and
// every line carries structured key=value fields a human or a script can
// grep.  The default level is `warn`: a normal run prints nothing.
//
// Cost contract: a suppressed log statement is one relaxed atomic load —
// no field formatting, no allocation, no lock.  The SECFLOW_LOG_* macros
// guarantee this by checking the level before evaluating their field
// arguments.  Emission serializes on a mutex, so interleaved lines from
// `parallel_for` workers never shear.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace secflow {

enum class LogLevel {
  kOff = 0,   ///< suppress everything
  kError,
  kWarn,      ///< the default
  kInfo,      ///< per-stage progress
  kDebug,     ///< per-iteration detail (router congestion, cache keys)
  kTrace,     ///< firehose
};

/// "off", "error", "warn", "info", "debug", "trace".
const char* log_level_name(LogLevel l);

/// Inverse of log_level_name (case-insensitive); nullopt on junk.
std::optional<LogLevel> parse_log_level(std::string_view s);

/// One structured key=value field attached to a log line.  Values are
/// pre-rendered to text at the call site (only ever reached when the
/// level is enabled).
struct LogField {
  std::string key;
  std::string value;

  LogField(std::string_view k, std::string_view v) : key(k), value(v) {}
  LogField(std::string_view k, const char* v) : key(k), value(v) {}
  LogField(std::string_view k, const std::string& v) : key(k), value(v) {}
  LogField(std::string_view k, bool v)
      : key(k), value(v ? "true" : "false") {}
  LogField(std::string_view k, int v) : key(k), value(std::to_string(v)) {}
  LogField(std::string_view k, long v) : key(k), value(std::to_string(v)) {}
  LogField(std::string_view k, long long v)
      : key(k), value(std::to_string(v)) {}
  LogField(std::string_view k, unsigned v)
      : key(k), value(std::to_string(v)) {}
  LogField(std::string_view k, unsigned long v)
      : key(k), value(std::to_string(v)) {}
  LogField(std::string_view k, unsigned long long v)
      : key(k), value(std::to_string(v)) {}
  LogField(std::string_view k, double v);
};

class Logger {
 public:
  /// The process-wide logger.  Its initial level comes from SECFLOW_LOG
  /// (read once at first use); set_level overrides it afterwards.
  static Logger& global();

  /// A fresh logger at `level` writing to stderr (tests use private
  /// instances so they never disturb the global one).
  explicit Logger(LogLevel level = LogLevel::kWarn);

  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  void set_level(LogLevel l) {
    level_.store(static_cast<int>(l), std::memory_order_relaxed);
  }
  bool enabled(LogLevel l) const {
    const int lvl = level_.load(std::memory_order_relaxed);
    return lvl != 0 && static_cast<int>(l) <= lvl;
  }

  /// Redirect formatted lines (tests); nullptr restores stderr.
  using Sink = std::function<void(LogLevel, std::string_view line)>;
  void set_sink(Sink sink);

  /// Emit one line: `LEVEL [component] message key=value ...`.  Values
  /// containing whitespace or '=' are double-quoted.  Callers normally go
  /// through the SECFLOW_LOG_* macros, which skip this entirely when the
  /// level is suppressed.
  void log(LogLevel l, std::string_view component, std::string_view message,
           std::initializer_list<LogField> fields = {});

 private:
  std::atomic<int> level_;
  std::mutex sink_mu_;
  Sink sink_;  // empty = stderr
};

}  // namespace secflow

/// Leveled log statements against Logger::global().  Field arguments are
/// not evaluated when the level is suppressed.
#define SECFLOW_LOG_AT(lvl, component, message, ...)                       \
  do {                                                                     \
    if (::secflow::Logger::global().enabled(lvl)) {                        \
      ::secflow::Logger::global().log(lvl, component, message,             \
                                      {__VA_ARGS__});                      \
    }                                                                      \
  } while (0)

#define SECFLOW_LOG_ERROR(component, message, ...) \
  SECFLOW_LOG_AT(::secflow::LogLevel::kError, component, message, __VA_ARGS__)
#define SECFLOW_LOG_WARN(component, message, ...) \
  SECFLOW_LOG_AT(::secflow::LogLevel::kWarn, component, message, __VA_ARGS__)
#define SECFLOW_LOG_INFO(component, message, ...) \
  SECFLOW_LOG_AT(::secflow::LogLevel::kInfo, component, message, __VA_ARGS__)
#define SECFLOW_LOG_DEBUG(component, message, ...) \
  SECFLOW_LOG_AT(::secflow::LogLevel::kDebug, component, message, __VA_ARGS__)
#define SECFLOW_LOG_TRACE(component, message, ...) \
  SECFLOW_LOG_AT(::secflow::LogLevel::kTrace, component, message, __VA_ARGS__)
