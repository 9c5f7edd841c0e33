#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace corropt::common {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  // JSON requires a leading digit before the exponent/point; %g already
  // guarantees that, but bare integers like "1e+20" are fine too.
  return buf;
}

JsonWriter& JsonWriter::begin_object() {
  prefix();
  out_ << '{';
  stack_.push_back(Scope::kObject);
  dirty_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool had_members = dirty_.back();
  stack_.pop_back();
  dirty_.pop_back();
  if (had_members) {
    out_ << '\n' << std::string(2 * stack_.size(), ' ');
  }
  out_ << '}';
  if (stack_.empty()) out_ << '\n';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  prefix();
  out_ << '[';
  stack_.push_back(Scope::kArray);
  dirty_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool had_elements = dirty_.back();
  stack_.pop_back();
  dirty_.pop_back();
  if (had_elements) {
    out_ << '\n' << std::string(2 * stack_.size(), ' ');
  }
  out_ << ']';
  if (stack_.empty()) out_ << '\n';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  prefix();
  out_ << '"' << json_escape(k) << "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  prefix();
  out_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  prefix();
  out_ << json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  prefix();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  prefix();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  prefix();
  out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::member(std::string_view k,
                               const std::vector<double>& v) {
  key(k);
  // Long numeric series stay on one line to keep files scannable.
  after_key_ = false;
  out_ << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out_ << ", ";
    out_ << json_number(v[i]);
  }
  out_ << ']';
  return *this;
}

void JsonWriter::prefix() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  if (dirty_.back()) out_ << ',';
  out_ << '\n' << std::string(2 * stack_.size(), ' ');
  dirty_.back() = true;
}

}  // namespace corropt::common
