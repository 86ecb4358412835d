// Non-owning reference to a callable: one object pointer plus one function
// pointer, never a heap allocation. Use it for callback parameters that are
// only invoked during the call (scans, visitors), where std::function would
// copy a capturing lambda onto the heap once it outgrows the small buffer.
// The referenced callable must outlive the FunctionRef; binding a temporary
// lambda in a call argument is fine, storing a FunctionRef is not.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace dcache::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& fn) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace dcache::util
