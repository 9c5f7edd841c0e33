// Minimal streaming JSON writer for structured bench output.
//
// The benches emit machine-readable metrics (BENCH_<exhibit>.json) next
// to their human-readable tables; a hand-rolled writer keeps the project
// dependency-free. Output is pretty-printed with two-space indentation,
// strings are escaped per RFC 8259, and doubles are printed with the
// shortest decimal form that round-trips, so files are stable across
// runs and diffable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace corropt::common {

// Escapes `s` for inclusion in a JSON string literal (no surrounding
// quotes added).
[[nodiscard]] std::string json_escape(std::string_view s);

// Shortest decimal representation that parses back to exactly `v`.
// Non-finite values have no JSON encoding and are emitted as null by the
// writer; this helper returns "null" for them as well.
[[nodiscard]] std::string json_number(double v);

class JsonWriter {
 public:
  // The writer does not own the stream; it must outlive the writer.
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // Writes the member key; must be inside an object and followed by
  // exactly one value (or container).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);

  // key + scalar value in one call.
  template <typename T>
  JsonWriter& member(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  // key + array of doubles, written on one line (used for long series).
  JsonWriter& member(std::string_view k, const std::vector<double>& v);

 private:
  enum class Scope { kObject, kArray };

  // Emits the separating comma/newline/indent due before a value or key.
  void prefix();

  std::ostream& out_;
  std::vector<Scope> stack_;
  // Whether the current scope has already emitted an element.
  std::vector<bool> dirty_;
  // A key was just written; the next value follows ": " on the same line.
  bool after_key_ = false;
};

// Opens the root object of a document and writes the envelope every
// document this repo writes starts with (corropt-bench-metrics/1,
// corropt-obs-metrics/1, corropt-whatif/1): schema, exhibit, generator,
// and "threads" when nonzero. The caller writes the document's own
// members and closes the root object.
void begin_document(JsonWriter& json, std::string_view schema,
                    std::string_view exhibit, std::string_view generator,
                    std::size_t threads = 0);

}  // namespace corropt::common
