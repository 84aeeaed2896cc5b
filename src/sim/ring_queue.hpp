// A vector-backed circular FIFO: the FIFO server's job queue (servers that
// queue by class use ClassQueues, class_queues.hpp).
//
// std::deque allocates and frees ~512-byte map nodes as elements cycle
// through, so a steady-state server still churns the allocator. RingQueue
// keeps one contiguous power-of-two buffer that only ever grows: after
// warm-up, push/pop cycles are pure index arithmetic (docs/PERFORMANCE.md).
//
// front() and pop_front() on an empty queue are checked preconditions
// (std::logic_error), not UB: the index mask is `size() - 1`, which on a
// never-grown (empty) buffer is SIZE_MAX, so the unchecked forms would
// silently index garbage and underflow the element count. The check is one
// predictable compare on the hot path; the FIFO server tests empty() first,
// so it never fires in a correct run.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ffc::sim {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return buf_.size(); }

  T& front() {
    check_nonempty();
    return buf_[head_];
  }
  const T& front() const {
    check_nonempty();
    return buf_[head_];
  }

  void push_back(T value) {
    if (count_ == buf_.size()) grow();
    buf_[wrap(head_ + count_)] = std::move(value);
    ++count_;
  }

  void pop_front() {
    check_nonempty();
    buf_[head_] = T{};  // release payload resources eagerly
    head_ = wrap(head_ + 1);
    --count_;
  }

  void reserve(std::size_t n) {
    if (n > buf_.size()) grow_to(ceil_pow2(n));
  }

  void clear() {
    while (!empty()) pop_front();
  }

 private:
  void check_nonempty() const {
    if (count_ == 0) {
      throw std::logic_error("RingQueue: front/pop_front on empty queue");
    }
  }

  /// Callers guarantee buf_ is nonempty (push_back grows first;
  /// front/pop_front are precondition-checked), so the mask `size() - 1` is
  /// well defined.
  std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

  static std::size_t ceil_pow2(std::size_t n) {
    std::size_t cap = 4;
    while (cap < n) cap <<= 1;
    return cap;
  }

  void grow() { grow_to(buf_.empty() ? 4 : buf_.size() * 2); }

  void grow_to(std::size_t new_cap) {
    std::vector<T> fresh(new_cap);
    for (std::size_t k = 0; k < count_; ++k) {
      fresh[k] = std::move(buf_[wrap(head_ + k)]);
    }
    buf_ = std::move(fresh);
    head_ = 0;
  }

  std::vector<T> buf_;  ///< capacity; always a power of two (or empty)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace ffc::sim
