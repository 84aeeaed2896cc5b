#include "trace.hpp"

#include <chrono>
#include <iomanip>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint32_t> open_spans;

}  // namespace

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent) {
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord record;
  record.id = static_cast<std::uint32_t>(spans_.size() + 1);
  record.parent = parent;
  record.run = run_.load(std::memory_order_relaxed);
  record.name = name;
  record.start = start;
  record.end = start;
  spans_.push_back(record);
  return record.id;
}

void Tracer::end(std::uint32_t id) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = end;
}

void Tracer::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << std::setprecision(9) << std::fixed << '[';
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const SpanRecord& s = spans_[k];
    os << (k ? "," : "") << '[' << s.id << ',' << s.parent << ',' << s.run
       << ",\"" << s.name << "\"," << s.start << ',' << s.end << ']';
  }
  os << ']';
  os.flags(flags);
  os.precision(precision);
}

Span::Span(const char* name)
    : Span(name, open_spans.empty() ? 0 : open_spans.back()) {}

Span::Span(const char* name, std::uint32_t parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  id_ = tracer.begin(name, parent);
  open_spans.push_back(id_);
}

Span::~Span() {
  if (id_ == 0) return;
  open_spans.pop_back();
  Tracer::instance().end(id_);
}

}  // namespace perfbench
