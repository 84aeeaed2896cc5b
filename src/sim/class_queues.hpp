// Per-class FIFO job lists in one pooled node array, for servers that
// queue by class: the preemptive priority server (one list per priority
// class) and the Fair Queueing server (one per connection).
//
// A server with F classes keeps F {head, tail} index pairs, a bitmap of its
// non-empty classes and ONE node pool with a free list, instead of F
// separately allocated buffers (docs/PERFORMANCE.md): its queued jobs share
// the pool's cache lines, and the pool grows only to the server's largest
// total backlog. After warm-up, pushes and pops are index arithmetic on
// recycled nodes and never allocate.
//
// front() and pop_front() on an empty class are checked preconditions
// (std::logic_error), as in RingQueue: an empty class's head is the nil
// index, so the unchecked forms would read past the pool.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ffc::sim {

template <typename T>
class ClassQueues {
 public:
  /// No class: what next_nonempty returns past the last non-empty one.
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  explicit ClassQueues(std::size_t num_classes)
      : lists_(num_classes), nonempty_((num_classes + 63) / 64, 0) {}

  std::size_t num_classes() const { return lists_.size(); }
  bool empty(std::size_t k) const { return lists_[k].head == kNil; }

  /// Nodes ever materialized: the server's largest total backlog so far.
  std::size_t pool_size() const { return nodes_.size(); }

  const T& front(std::size_t k) const {
    check_nonempty(k);
    return nodes_[lists_[k].head].value;
  }

  void push_back(std::size_t k, T value) {
    const std::uint32_t n = acquire(std::move(value));
    List& list = lists_[k];
    if (list.head == kNil) {
      list.head = n;
      mark_nonempty(k);
    } else {
      nodes_[list.tail].next = n;
    }
    list.tail = n;
  }

  void push_front(std::size_t k, T value) {
    const std::uint32_t n = acquire(std::move(value));
    List& list = lists_[k];
    nodes_[n].next = list.head;
    if (list.head == kNil) {
      list.tail = n;
      mark_nonempty(k);
    }
    list.head = n;
  }

  T pop_front(std::size_t k) {
    check_nonempty(k);
    List& list = lists_[k];
    const std::uint32_t n = list.head;
    Node& node = nodes_[n];
    list.head = node.next;
    if (list.head == kNil) {
      list.tail = kNil;
      nonempty_[k / 64] &= ~(std::uint64_t{1} << (k % 64));
    }
    node.next = free_;
    free_ = n;
    return std::move(node.value);
  }

  /// The lowest non-empty class >= `from`, or npos: a count-trailing-zeros
  /// walk over the bitmap, one word per 64 classes.
  std::size_t next_nonempty(std::size_t from) const {
    std::size_t word = from / 64;
    if (word >= nonempty_.size()) return npos;
    std::uint64_t bits = nonempty_[word] & (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
      if (++word == nonempty_.size()) return npos;
      bits = nonempty_[word];
    }
    return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    T value;
    std::uint32_t next = kNil;
  };
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  void check_nonempty(std::size_t k) const {
    if (lists_[k].head == kNil) {
      throw std::logic_error("ClassQueues: front/pop_front on empty class");
    }
  }

  void mark_nonempty(std::size_t k) {
    nonempty_[k / 64] |= std::uint64_t{1} << (k % 64);
  }

  /// A node holding `value` with no successor: the free list's head, else a
  /// new one (the pool's indices stop short of the nil index).
  std::uint32_t acquire(T value) {
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n] = Node{std::move(value), kNil};
      return n;
    }
    if (nodes_.size() == kNil) {
      throw std::length_error("ClassQueues: more than 2^32 - 1 queued jobs");
    }
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{std::move(value), kNil});
    return n;
  }

  std::vector<Node> nodes_;  ///< the pool; grows, never shrinks
  std::vector<List> lists_;  ///< per class; {nil, nil} when empty
  /// Bit (k % 64) of word k / 64 is set iff class k is non-empty.
  std::vector<std::uint64_t> nonempty_;
  std::uint32_t free_ = kNil;  ///< head of the recycled-node list
};

}  // namespace ffc::sim
