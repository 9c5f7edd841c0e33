#include "common/logging.h"

#include <iostream>

namespace corropt::common {

void log_message(LogLevel level, std::string_view message) {
  std::cerr << (level == LogLevel::kError ? "[ERROR] " : "[WARN] ")
            << message << '\n';
}

}  // namespace corropt::common
