#include "report/json.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ffc::report {

JsonWriter::JsonWriter(std::ostream& os, int indent)
    : os_(os), indent_(indent < 0 ? 0 : indent) {}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
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
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

void JsonWriter::raw(std::string_view text) { os_ << text; }

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size() * static_cast<std::size_t>(indent_);
       ++i) {
    os_ << ' ';
  }
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    if (document_started_) {
      throw std::logic_error("JsonWriter: document already complete");
    }
    document_started_ = true;
    return;
  }
  if (stack_.back() == Frame::Object) {
    if (!key_pending_) {
      throw std::logic_error("JsonWriter: value inside object requires key()");
    }
    key_pending_ = false;  // key() already emitted "key": including the comma
    return;
  }
  // Array element.
  if (frame_has_items_.back()) raw(",");
  frame_has_items_.back() = true;
  newline_indent();
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back() != Frame::Object) {
    throw std::logic_error("JsonWriter: key() outside object");
  }
  if (key_pending_) {
    throw std::logic_error("JsonWriter: consecutive key() calls");
  }
  if (frame_has_items_.back()) raw(",");
  frame_has_items_.back() = true;
  newline_indent();
  raw(escape(k));
  raw(indent_ > 0 ? ": " : ":");
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  raw("{");
  stack_.push_back(Frame::Object);
  frame_has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Frame::Object) {
    throw std::logic_error("JsonWriter: end_object() without begin_object()");
  }
  if (key_pending_) {
    throw std::logic_error("JsonWriter: end_object() with dangling key");
  }
  const bool had_items = frame_has_items_.back();
  stack_.pop_back();
  frame_has_items_.pop_back();
  if (had_items) newline_indent();
  raw("}");
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  raw("[");
  stack_.push_back(Frame::Array);
  frame_has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Frame::Array) {
    throw std::logic_error("JsonWriter: end_array() without begin_array()");
  }
  const bool had_items = frame_has_items_.back();
  stack_.pop_back();
  frame_has_items_.pop_back();
  if (had_items) newline_indent();
  raw("]");
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value();
  raw(escape(s));
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    ++non_finite_;
    raw("null");
    return *this;
  }
  std::ostringstream oss;
  oss.precision(std::numeric_limits<double>::max_digits10);
  oss << v;
  raw(oss.str());
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  raw(v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  raw("null");
  return *this;
}

void JsonWriter::close() {
  if (!stack_.empty()) {
    throw std::logic_error("JsonWriter: close() with open containers");
  }
  if (!document_started_) {
    throw std::logic_error("JsonWriter: close() before any value");
  }
  if (indent_ > 0) os_ << '\n';
  os_.flush();
}

}  // namespace ffc::report
