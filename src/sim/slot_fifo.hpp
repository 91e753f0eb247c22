// Grow-only ring buffer.
//
// Backs the disk schedulers' FIFOs (NOOP's slot FIFO, the deadline expiry
// FIFOs, CFQ's round-robin list) and sim::FifoResource's job queue. The
// buffer doubles when full and never shrinks, so a FIFO that has reached its
// peak depth stops allocating; std::deque frees and re-allocates its chunks
// as the queue drains and refills. T must be default-constructible and
// move-assignable; a popped element leaves a moved-from T in its slot.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace dpar::sim {

template <class T>
class SlotFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  T pop_front() {
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return v;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dpar::sim
