// Small-buffer-optimized event callback for the simulator hot path.
//
// `EventFn` replaces `std::function<void()>` in the event queue. Two things
// make it faster on the loop's dominant patterns:
//
//   * a coroutine-handle constructor — most events are "resume this
//     suspended process" (sleep expiry, queue wakeups), which stores just
//     the 8-byte handle with no functor frame and no allocation;
//   * 48 bytes of inline storage — every callback the protocol layers
//     schedule (retransmit timers, delivery events) fits inline, so
//     sustained simulation does zero per-event heap allocation. Larger
//     captures transparently fall back to the heap.
//
// Move-only, like the events it carries.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace p3::sim {

class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() noexcept = default;

  /// Coroutine-resume fast path (no functor frame, never allocates).
  EventFn(std::coroutine_handle<> h) noexcept : ops_(&kResumeOps) {
    ::new (static_cast<void*>(buf_)) std::coroutine_handle<>(h);
  }

  /// Any other callable; inline when it fits, heap-boxed otherwise.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             !std::is_convertible_v<F &&, std::coroutine_handle<>> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) relocate_from(other);
    other.ops_ = nullptr;
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) relocate_from(other);
      other.ops_ = nullptr;
    }
    return *this;
  }

  /// Re-target at a new callable in place (the slab hot path: no temporary
  /// EventFn, no extra buffer copy).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             !std::is_convertible_v<F &&, std::coroutine_handle<>> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventFn& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  EventFn& operator=(std::coroutine_handle<> h) noexcept {
    reset();
    ops_ = &kResumeOps;
    ::new (static_cast<void*>(buf_)) std::coroutine_handle<>(h);
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  /// If this is a coroutine-resume event, empty it and return its handle;
  /// otherwise leave it alone and return a null handle. Lets the dispatch
  /// loop resume a process without moving the callback out of its slot.
  std::coroutine_handle<> take_resume() noexcept {
    if (ops_ != &kResumeOps) return {};
    ops_ = nullptr;
    return *std::launder(reinterpret_cast<std::coroutine_handle<>*>(buf_));
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  /// Manual vtable; `relocate` move-constructs into `to` and destroys the
  /// source in one call, which is all a queue ever needs. When `trivial` is
  /// set the payload is trivially relocatable and movers memcpy the buffer
  /// inline instead of paying an indirect call — true for almost every
  /// callback on the hot path (coroutine handles, pointer-capturing
  /// lambdas, and every heap-boxed functor, whose payload is one pointer).
  struct Ops {
    void (*invoke)(void* buf);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* buf) noexcept;
    bool trivial;          ///< relocatable by memcpy
    bool trivial_destroy;  ///< destructor is a no-op
  };

  void relocate_from(EventFn& other) noexcept {
    if (ops_->trivial) {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    } else {
      ops_->relocate(other.buf_, buf_);
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr && !ops_->trivial_destroy) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &BoxedOps<Fn>::kOps;
    }
  }

  template <typename Fn>
  struct InlineOps {
    static void invoke(void* buf) { (*std::launder(static_cast<Fn*>(buf)))(); }
    static void relocate(void* from, void* to) noexcept {
      Fn* src = std::launder(static_cast<Fn*>(from));
      ::new (to) Fn(std::move(*src));
      src->~Fn();
    }
    static void destroy(void* buf) noexcept {
      std::launder(static_cast<Fn*>(buf))->~Fn();
    }
    static constexpr Ops kOps{invoke, relocate, destroy,
                              std::is_trivially_copyable_v<Fn>,
                              std::is_trivially_destructible_v<Fn>};
  };

  template <typename Fn>
  struct BoxedOps {
    static Fn* get(void* buf) {
      return *std::launder(static_cast<Fn**>(buf));
    }
    static void invoke(void* buf) { (*get(buf))(); }
    static void relocate(void* from, void* to) noexcept {
      ::new (to) Fn*(get(from));
    }
    static void destroy(void* buf) noexcept { delete get(buf); }
    // The inline payload is just the owning pointer — trivially movable,
    // but destruction must free the box.
    static constexpr Ops kOps{invoke, relocate, destroy, true, false};
  };

  static void resume_invoke(void* buf) {
    std::launder(static_cast<std::coroutine_handle<>*>(buf))->resume();
  }
  static void resume_relocate(void* from, void* to) noexcept {
    ::new (to) std::coroutine_handle<>(
        *std::launder(static_cast<std::coroutine_handle<>*>(from)));
  }
  static void resume_destroy(void*) noexcept {}
  static constexpr Ops kResumeOps{resume_invoke, resume_relocate,
                                  resume_destroy, true, true};

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace p3::sim
