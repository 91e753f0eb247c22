// Owner-held free-list pool of control blocks.
//
// The fault-free request path recycles one small control block per message,
// server request and client call instead of allocating each. A Pool hands
// out default-constructed T's from chunks it owns and takes them back on a
// free list; blocks are never destroyed on release, so members such as a
// run vector keep their capacity across reuse. Every block ever handed out
// is destroyed with the pool, so a closure that is destroyed unfired (a
// dropped message, an experiment torn down mid-run) leaks nothing.
//
// Users keep the continuation rule of sim/fanin.hpp: move the continuation
// out and release the block before invoking it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace dpar::sim {

template <class T>
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// A block previously released (its members hold whatever the last user
  /// left there) or a fresh default-constructed one.
  T* acquire() {
    if (free_.empty()) grow_();
    T* p = free_.back();
    free_.pop_back();
    return p;
  }

  void release(T* p) { free_.push_back(p); }

 private:
  static constexpr std::size_t kChunk = 32;

  void grow_() {
    chunks_.push_back(std::make_unique<T[]>(kChunk));
    T* chunk = chunks_.back().get();
    // Room for every block owned, so release() never reallocates.
    free_.reserve(chunks_.size() * kChunk);
    for (std::size_t i = kChunk; i-- > 0;) free_.push_back(chunk + i);
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<T*> free_;
};

}  // namespace dpar::sim
