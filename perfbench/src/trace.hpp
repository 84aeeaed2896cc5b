// In-memory span recorder for the traced benchmark run.
//
// A span is one call the benchmark makes into a layer of the library:
// a name ("core.solve_fixed_point"), a start and an end on the process's
// steady clock, the span that caused it, and the run it belongs to (one
// run per set-up batch, timed repetition or replay). Spans are kept in
// memory and written out once, when the workload ends, so recording costs
// a clock read and a short locked push per call.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the library. With recording off (the untraced run) a Span is inert.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct SpanRecord {
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< 0 for a root span
  std::uint32_t run = 0;
  const char* name = "";     ///< string literal, never freed
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Labels the spans opened from now on (set from the main thread only,
  /// while no worker thread is recording).
  void set_run(std::uint32_t run) { run_.store(run, std::memory_order_relaxed); }

  std::uint32_t begin(const char* name, std::uint32_t parent);
  void end(std::uint32_t id);

  /// Writes every span as a JSON array of [id, parent, run, name, start,
  /// end] rows.
  void write_json(std::ostream& os) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> run_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/// RAII span. The default parent is the innermost span still open on the
/// calling thread; code running on a worker thread passes its parent
/// explicitly.
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, std::uint32_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_ = 0;
};

/// Calls `f()` inside a span named `name` and returns what it returns.
template <typename F>
decltype(auto) in_span(const char* name, F&& f) {
  Span span(name);
  return f();
}

}  // namespace perfbench
