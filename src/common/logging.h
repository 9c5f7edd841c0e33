// Warning and error lines on stderr.
//
// The decision journal (obs::EventJournal) records what the controller
// did and why; this is only for conditions an operator must see, such as
// the optimizer's greedy fallback or a corrupt topology. Each message is
// one line, "[WARN] message" or "[ERROR] message", and every message is
// printed: there is no level switch.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace corropt::common {

enum class LogLevel { kWarning, kError };

// Emits one line to stderr: "[WARN] message" or "[ERROR] message".
void log_message(LogLevel level, std::string_view message);

namespace internal {

// Builds the message lazily; destructor emits it.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { log_message(level_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

#define CORROPT_LOG_WARNING \
  ::corropt::common::internal::LogLine(::corropt::common::LogLevel::kWarning)
#define CORROPT_LOG_ERROR \
  ::corropt::common::internal::LogLine(::corropt::common::LogLevel::kError)

}  // namespace corropt::common
