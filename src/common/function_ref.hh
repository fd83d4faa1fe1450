/**
 * @file
 * Non-owning reference to a callable.
 *
 * The engine hot paths hand callbacks down one level (the
 * reconstruction engine's region note, the stream queues' refill
 * source) and call them millions of times per sweep. std::function
 * would own a copy of the callable, may allocate, and dispatches
 * through a manager; a FunctionRef is two words — the callable's
 * address and a trampoline — so passing it is a register copy and
 * calling it one indirect call.
 *
 * Lifetime rule: a FunctionRef never owns what it refers to. The
 * callable (a lambda, or the object bound by bind()) must outlive
 * every call made through the reference.
 */

#ifndef STEMS_COMMON_FUNCTION_REF_HH
#define STEMS_COMMON_FUNCTION_REF_HH

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace stems {

template <typename Signature>
class FunctionRef;

/**
 * @tparam R     return type.
 * @tparam Args  argument types.
 */
template <typename R, typename... Args>
class FunctionRef<R(Args...)>
{
  public:
    /** The null reference (operator bool is false). */
    FunctionRef() = default;
    FunctionRef(std::nullptr_t) {}

    /**
     * Refer to a callable. Excluded for FunctionRef itself, so
     * copying a reference copies its two words instead of wrapping
     * the source reference (which would dangle once the source goes
     * out of scope).
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                  std::is_invocable_r_v<R, F &, Args...>>>
    FunctionRef(F &&f)
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call_([](void *obj, Args... args) -> R {
              return (*static_cast<std::remove_reference_t<F> *>(obj))(
                  std::forward<Args>(args)...);
          })
    {
    }

    /** Refer to a member function of a long-lived object. */
    template <auto Method, typename C>
    static FunctionRef
    bind(C *obj)
    {
        FunctionRef f;
        f.obj_ = obj;
        f.call_ = [](void *o, Args... args) -> R {
            return (static_cast<C *>(o)->*Method)(
                std::forward<Args>(args)...);
        };
        return f;
    }

    R
    operator()(Args... args) const
    {
        return call_(obj_, std::forward<Args>(args)...);
    }

    explicit operator bool() const { return call_ != nullptr; }

  private:
    void *obj_ = nullptr;
    R (*call_)(void *, Args...) = nullptr;
};

} // namespace stems

#endif // STEMS_COMMON_FUNCTION_REF_HH
