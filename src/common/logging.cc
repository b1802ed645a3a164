#include "src/common/logging.h"

#include <cstdio>
#include <mutex>

namespace soap {

namespace {
const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

std::mutex& SinkMutex() {
  static std::mutex mu;
  return mu;
}
}  // namespace

std::optional<LogLevel> ParseLogLevel(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  return std::nullopt;
}

thread_local Logger::ClockFn Logger::clock_;

Logger& Logger::Instance() {
  static Logger logger;
  return logger;
}

void Logger::set_clock(ClockFn clock) { clock_ = std::move(clock); }

void Logger::Write(LogLevel level, const std::string& message) {
  std::lock_guard<std::mutex> guard(SinkMutex());
  if (clock_) {
    const int64_t t = clock_();
    std::fprintf(stderr, "[%s] [vt=%lld.%06llds] %s\n", LevelName(level),
                 static_cast<long long>(t / 1'000'000),
                 static_cast<long long>(t % 1'000'000), message.c_str());
  } else {
    std::fprintf(stderr, "[%s] %s\n", LevelName(level), message.c_str());
  }
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Component = the source directory under src/ (or the file's immediate
  // parent), so lines read "[txn] lock_manager.cc:42".
  const char* base = file;
  const char* parent = nullptr;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') {
      parent = base;
      base = p + 1;
    }
  }
  if (parent != nullptr) {
    stream_ << '[';
    for (const char* p = parent; *p != '/'; ++p) stream_ << *p;
    stream_ << "] ";
  }
  stream_ << base << ":" << line << " ";
}

LogMessage::~LogMessage() {
  Logger::Instance().Write(level_, stream_.str());
}

}  // namespace internal

}  // namespace soap
