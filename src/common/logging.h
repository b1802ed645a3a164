// Minimal leveled logger. Logging is off by default in benches/tests (level
// kWarn) and can be raised for debugging a simulation run (`--log_level
// debug` on the tools). When a clock hook is installed (the experiment
// engine injects the simulator's), every line is stamped with the virtual
// time it was emitted at, and each line carries the component (source
// directory) it came from:
//
//   [INFO] [vt=12.345678s] [cluster] transaction_manager.cc:42 ...

#ifndef SOAP_COMMON_LOGGING_H_
#define SOAP_COMMON_LOGGING_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace soap {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// "debug"/"info"/"warn"/"error" (case-sensitive) to a level; nullopt for
/// anything else. For wiring --log_level flags.
std::optional<LogLevel> ParseLogLevel(std::string_view name);

/// Process-wide log sink writing to stderr. Thread-safe.
class Logger {
 public:
  /// Returns the current virtual time in microseconds.
  using ClockFn = std::function<int64_t()>;

  static Logger& Instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  bool Enabled(LogLevel level) const {
    return static_cast<int>(level) >= static_cast<int>(level_);
  }

  /// Installs (or, with nullptr, removes) the virtual-time stamp source.
  /// The experiment engine points this at its simulator for the duration
  /// of a run; whoever installs a clock must remove it before the clock's
  /// referent dies. The hook is thread-local: experiments running on
  /// parallel threads (engine::ParallelRunner) each stamp their own lines
  /// with their own simulator's virtual time. Defined in logging.cc next
  /// to the thread_local: inlined into other translation units, the
  /// assignment tripped UBSan's null-reference check in optimised builds.
  void set_clock(ClockFn clock);

  void Write(LogLevel level, const std::string& message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
  static thread_local ClockFn clock_;
};

namespace internal {

/// Collects one log line and flushes it to the Logger on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Lower-precedence-than-<< sink that turns a LogMessage expression into
/// void, so SOAP_LOG can be a single ternary expression.
struct Voidify {
  void operator&(const LogMessage&) {}
};

}  // namespace internal

// A single expression (no if/else), so `if (x) SOAP_LOG(...) << ...;
// else ...` binds the else to the user's if instead of silently attaching
// to a hidden one inside the macro.
#define SOAP_LOG(level)                                                 \
  (!::soap::Logger::Instance().Enabled(::soap::LogLevel::level))        \
      ? (void)0                                                         \
      : ::soap::internal::Voidify() &                                   \
            ::soap::internal::LogMessage(::soap::LogLevel::level,       \
                                         __FILE__, __LINE__)

}  // namespace soap

#endif  // SOAP_COMMON_LOGGING_H_
