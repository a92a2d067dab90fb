// Non-owning callable reference: two words (object pointer + trampoline),
// trivially copyable, never allocates.
//
// LIFETIME CONTRACT: a function_ref borrows its target.  Whoever stores one
// (server-pool listeners, host receivers, simulator trace hooks) requires
// the callable to outlive the registration.  Never pass a temporary lambda
// to an API that keeps the ref beyond the call — name the lambda (or use
// bind<>() on a member function) so it lives as long as the component that
// will invoke it.  Passing temporaries to synchronous consumers
// (ThreadPool::parallel_for) is fine.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace hbp::util {

template <typename Sig>
class function_ref;

template <typename R, typename... Args>
class function_ref<R(Args...)> {
 public:
  constexpr function_ref() noexcept = default;
  constexpr function_ref(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  // Plain function pointers are stored by value in the object slot, so the
  // ref is valid forever (no lifetime to manage).
  function_ref(R (*fn)(Args...)) noexcept  // NOLINT(runtime/explicit)
      : obj_(reinterpret_cast<void*>(fn)),
        call_([](void* o, Args... args) -> R {
          return reinterpret_cast<R (*)(Args...)>(o)(
              std::forward<Args>(args)...);
        }) {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, function_ref> &&
                !std::is_function_v<std::remove_reference_t<F>> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  function_ref(F&& f) noexcept  // NOLINT(runtime/explicit)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          auto& fn = *static_cast<std::remove_reference_t<F>*>(obj);
          if constexpr (std::is_void_v<R>) {
            std::invoke(fn, std::forward<Args>(args)...);
          } else {
            return std::invoke(fn, std::forward<Args>(args)...);
          }
        }) {}

  // Binds a member function to an object: function_ref::bind<&T::method>(obj).
  // The ref stays valid as long as `obj` lives — no lambda to keep alive.
  template <auto Member, typename T>
  static function_ref bind(T& obj) noexcept {
    function_ref r;
    r.obj_ = const_cast<void*>(static_cast<const void*>(std::addressof(obj)));
    r.call_ = [](void* o, Args... args) -> R {
      if constexpr (std::is_void_v<R>) {
        std::invoke(Member, *static_cast<T*>(o), std::forward<Args>(args)...);
      } else {
        return std::invoke(Member, *static_cast<T*>(o),
                           std::forward<Args>(args)...);
      }
    };
    return r;
  }

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace hbp::util
