// Streaming JSON emission for run manifests and metric snapshots.
//
// The observability layer (src/obs, exec::SweepManifest, the DES counters)
// serializes through this writer rather than hand-assembled strings so that
// escaping, number formatting, and structural validity are enforced in one
// place. Output is deterministic: no hashing, no pointer-dependent
// ordering -- callers iterate sorted containers and the writer emits bytes
// in call order.
//
// Conventions (documented in docs/OBSERVABILITY.md):
//   * doubles are written with max_digits10 so they round-trip exactly;
//   * NaN and +/-Inf are not representable in JSON -- they are emitted as
//     null and counted (non_finite_count()), so divergence is visible in
//     the artifact instead of producing invalid output;
//   * strings are escaped per RFC 8259 (quotes, backslash, and control
//     characters as \uXXXX).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ffc::report {

/// Streams one JSON document to an std::ostream.
///
/// Structural misuse (a value where a key is required, end_object() inside
/// an array, ...) throws std::logic_error immediately rather than emitting
/// malformed bytes. Call close() (or let the document end naturally at
/// depth 0) before reading the stream.
class JsonWriter {
 public:
  /// Binds the writer to `os`; the stream must outlive the writer.
  /// `indent` > 0 pretty-prints with that many spaces per nesting level and
  /// one key per line (the layout the manifest-diffing convention relies
  /// on); indent == 0 emits compact single-line JSON.
  explicit JsonWriter(std::ostream& os, int indent = 2);

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; the next call must produce its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  /// Current nesting depth (0 once the document is complete).
  std::size_t depth() const { return stack_.size(); }

  /// Throws std::logic_error unless the document is structurally complete
  /// (depth 0 and at least one value written).
  void close();

  /// Number of NaN/Inf doubles emitted as null so far.
  std::size_t non_finite_count() const { return non_finite_; }

  /// Escapes `s` per RFC 8259 and wraps it in quotes.
  static std::string escape(std::string_view s);

 private:
  enum class Frame : unsigned char { Object, Array };

  void before_value();  // comma / newline / key bookkeeping
  void newline_indent();
  void raw(std::string_view text);

  std::ostream& os_;
  int indent_;
  std::vector<Frame> stack_;
  std::vector<bool> frame_has_items_;
  bool key_pending_ = false;
  bool document_started_ = false;
  std::size_t non_finite_ = 0;
};

}  // namespace ffc::report
