// Move-only owning `void()` callable with an in-place small-buffer store.
//
// The common simulator closure — a component pointer plus a moved-in Packet
// — fits the buffer, so constructing, moving, and destroying one performs
// zero heap allocations.  Targets larger than the buffer (rare control-plane
// closures carrying signed messages) fall back to the heap; packet-path
// scheduling sites pin their closures inline with
// `static_assert(sim::Event::fits_inline<decltype(fn)>())`.
//
// `emplace` builds a target directly in an existing SmallFn, so a queue can
// construct a scheduled closure once, in its final storage.
//
// Dispatch is vtable-free: one pointer to a static per-type operations
// record (invoke / relocate / destroy), resolved at construction.  Targets
// that are trivially copyable and trivially destructible — a pointer plus a
// Packet, a `[this]` tick — have null relocate/destroy entries: moving one
// copies the whole buffer with one fixed-size memcpy, and destroying one is
// a no-op.  A heap target moves the same way, since its buffer holds only
// the pointer.
#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace hbp::util {

namespace detail {
// Common base of every SmallFn specialisation: lets the converting
// constructor reject any SmallFn (or type derived from one), which would
// otherwise be wrapped — and usually heap-allocated — as a new target.
struct SmallFnTag {};
}  // namespace detail

template <typename T>
inline constexpr bool is_small_fn_v =
    std::is_base_of_v<detail::SmallFnTag, std::remove_cvref_t<T>>;

template <std::size_t Capacity>
class SmallFn : detail::SmallFnTag {
 public:
  static constexpr std::size_t kInlineSize = Capacity;

  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F, typename D = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!is_small_fn_v<D> &&
                                        std::is_invocable_r_v<void, D&>>>
  SmallFn(F&& f) {  // NOLINT(runtime/explicit)
    construct<D>(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept { steal(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  // Replaces the target with `f`: a callable is constructed in place (an
  // lvalue is copied, an rvalue moved); an rvalue SmallFn of this type is
  // moved in whole.
  template <typename F>
  void emplace(F&& f) {
    using D = std::remove_cvref_t<F>;
    if constexpr (std::is_same_v<D, SmallFn>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(!is_small_fn_v<D>,
                    "a SmallFn of another capacity is not a target");
      static_assert(std::is_invocable_r_v<void, D&>, "not a void() callable");
      reset();
      construct<D>(std::forward<F>(f));
    }
  }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // True when a target of type F is stored in the inline buffer (no heap).
  template <typename F>
  static constexpr bool fits_inline() {
    using D = std::remove_cvref_t<F>;
    return sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    // Move-constructs dst from src and destroys src; null: memcpy the buffer.
    void (*relocate)(void* src, void* dst);
    // Null: nothing to destroy.
    void (*destroy)(void* buf);
  };

  template <typename T>
  static constexpr bool kTrivial =
      std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>;

  template <typename T>
  static constexpr Ops kInlineOpsFor{
      [](void* buf) { (*static_cast<T*>(buf))(); },
      kTrivial<T> ? nullptr
                  : +[](void* src, void* dst) {
                      ::new (dst) T(std::move(*static_cast<T*>(src)));
                      static_cast<T*>(src)->~T();
                    },
      kTrivial<T> ? nullptr
                  : +[](void* buf) { static_cast<T*>(buf)->~T(); }};

  template <typename T>
  static T* heap_target(void* buf) {
    T* p = nullptr;
    std::memcpy(&p, buf, sizeof(p));
    return p;
  }

  template <typename T>
  static constexpr Ops kHeapOpsFor{
      [](void* buf) { (*heap_target<T>(buf))(); },
      nullptr,
      [](void* buf) { delete heap_target<T>(buf); }};

  // Requires an empty *this.
  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOpsFor<D>;
    } else {
      D* p = new D(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof(p));
      ops_ = &kHeapOpsFor<D>;
    }
  }

  void steal(SmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      std::memcpy(buf_, other.buf_, Capacity);
    } else {
      ops_->relocate(other.buf_, buf_);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace hbp::util
