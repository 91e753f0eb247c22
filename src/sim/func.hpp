// Move-only callable with a small-buffer optimisation.
//
// The event engine schedules millions of callbacks per simulated run and the
// common capture set is a handful of pointers (driver, request, process).
// `std::function` spills anything beyond ~16 bytes to the heap; this type
// keeps captures up to kInlineSize bytes in place, so the schedule/fire hot
// path never touches the allocator. Larger callables still work — they fall
// back to a single heap cell.
//
// `UniqueFn<R(Args...)>` is the general form; `UniqueFunction` is the
// `void()` instantiation the engine and most completion callbacks use.
//
// Beware of nesting: a UniqueFunction is 72 bytes, so a lambda that captures
// one by value exceeds the 48-byte inline buffer and spills, and so does one
// capturing a struct that holds one (a pfs::ServerIoRequest is ~120 bytes).
// The request path parks such state in a pooled control block
// (sim/pool.hpp: network transits, pfs::ServerOp, client and RAID fan-ins)
// or in a member of its owner, and captures the owner plus the block
// pointer. Off the request path, sim/fanin.hpp's heap fan-in does the same
// with one allocation.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dpar::sim {

template <class Sig>
class UniqueFn;

template <class R, class... Args>
class UniqueFn<R(Args...)> {
 public:
  /// Sized for the engine's common case: lambdas capturing up to six
  /// pointer-sized values stay inline.
  static constexpr std::size_t kInlineSize = 48;

  UniqueFn() noexcept = default;

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, UniqueFn> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  UniqueFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_.buf)) Fn(std::forward<F>(f));
      invoke_ = [](UniqueFn& self, Args... args) -> R {
        return (*self.inline_ptr<Fn>())(std::forward<Args>(args)...);
      };
      relocate_ = [](UniqueFn& dst, UniqueFn& src) {
        ::new (static_cast<void*>(dst.storage_.buf))
            Fn(std::move(*src.inline_ptr<Fn>()));
        src.inline_ptr<Fn>()->~Fn();
      };
      destroy_ = [](UniqueFn& self) { self.inline_ptr<Fn>()->~Fn(); };
    } else {
      storage_.ptr = new Fn(std::forward<F>(f));
      invoke_ = [](UniqueFn& self, Args... args) -> R {
        return (*self.heap_ptr<Fn>())(std::forward<Args>(args)...);
      };
      relocate_ = [](UniqueFn& dst, UniqueFn& src) {
        dst.storage_.ptr = src.storage_.ptr;
      };
      destroy_ = [](UniqueFn& self) { delete self.heap_ptr<Fn>(); };
    }
  }

  UniqueFn(UniqueFn&& other) noexcept { take_(other); }

  UniqueFn& operator=(UniqueFn&& other) noexcept {
    if (this != &other) {
      reset();
      take_(other);
    }
    return *this;
  }

  UniqueFn(const UniqueFn&) = delete;
  UniqueFn& operator=(const UniqueFn&) = delete;

  ~UniqueFn() { reset(); }

  void reset() noexcept {
    if (destroy_) {
      destroy_(*this);
      invoke_ = nullptr;
      relocate_ = nullptr;
      destroy_ = nullptr;
    }
  }

  R operator()(Args... args) {
    return invoke_(*this, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  void take_(UniqueFn& other) noexcept {
    if (other.invoke_) {
      other.relocate_(*this, other);
      invoke_ = other.invoke_;
      relocate_ = other.relocate_;
      destroy_ = other.destroy_;
      other.invoke_ = nullptr;
      other.relocate_ = nullptr;
      other.destroy_ = nullptr;
    }
  }

  template <class Fn>
  Fn* inline_ptr() noexcept {
    return std::launder(reinterpret_cast<Fn*>(storage_.buf));
  }
  template <class Fn>
  Fn* heap_ptr() noexcept {
    return static_cast<Fn*>(storage_.ptr);
  }

  union Storage {
    alignas(std::max_align_t) unsigned char buf[kInlineSize];
    void* ptr;
  } storage_;
  R (*invoke_)(UniqueFn&, Args...) = nullptr;
  void (*relocate_)(UniqueFn&, UniqueFn&) = nullptr;
  void (*destroy_)(UniqueFn&) = nullptr;
};

/// The engine's callback type and the I/O stack's completion-callback type.
using UniqueFunction = UniqueFn<void()>;

}  // namespace dpar::sim
