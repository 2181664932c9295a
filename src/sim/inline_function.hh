/**
 * @file
 * Small-buffer-optimized callable for the DES hot path.
 *
 * InlineFunction<N> is a move-only type-erased `void()` callable whose
 * captures live in an N-byte inline buffer; only captures larger than
 * the buffer (or over-aligned, or with throwing moves) fall back to
 * one heap allocation. Unlike std::function it never allocates for the
 * common case — an event callback capturing `this` plus a few scalars
 * — which is what makes scheduling an event allocation-free.
 *
 * The inline/heap distinction is encoded in the static ops table
 * selected at construction, not in a runtime flag: a call is one
 * indirect call on a small vtable-like struct. Targets stored as plain
 * bytes — inline trivially copyable ones, and the pointer of a
 * heap-stored one — carry no relocate op and move by memcpy, and a
 * trivially destructible inline target has no destroy op either.
 */

#ifndef MCDLA_SIM_INLINE_FUNCTION_HH
#define MCDLA_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace mcdla
{

namespace detail
{

/** Type-erased operations on one target type's storage. */
struct InlineFunctionOps
{
    void (*invoke)(void *storage);
    /** Move-construct the target from @p from into @p to and destroy
        the source; null when a byte copy of the storage does both. */
    void (*relocate)(void *from, void *to);
    /** Destroy the target; null when there is nothing to do. */
    void (*destroy)(void *storage);
};

/** Ops of a target constructed in the inline buffer. */
template <class Fn>
struct InlineTargetOps
{
    static void
    invoke(void *storage)
    {
        (*static_cast<Fn *>(storage))();
    }

    static void
    relocate(void *from, void *to)
    {
        Fn *src = static_cast<Fn *>(from);
        ::new (to) Fn(std::move(*src));
        src->~Fn();
    }

    static void
    destroy(void *storage)
    {
        static_cast<Fn *>(storage)->~Fn();
    }

    static constexpr InlineFunctionOps
    makeOps()
    {
        if constexpr (!std::is_trivially_copyable<Fn>::value)
            return {&invoke, &relocate, &destroy};
        else
            return {&invoke, nullptr, nullptr};
    }

    static constexpr InlineFunctionOps ops = makeOps();
};

/** Ops of a heap-allocated target: the buffer holds its pointer. */
template <class Fn>
struct HeapTargetOps
{
    static void
    invoke(void *storage)
    {
        (**static_cast<Fn **>(storage))();
    }

    static void
    destroy(void *storage)
    {
        delete *static_cast<Fn **>(storage);
    }

    static constexpr InlineFunctionOps ops = {&invoke, nullptr,
                                              &destroy};
};

} // namespace detail

/** Move-only `void()` callable with an @p InlineBytes SBO buffer. */
template <std::size_t InlineBytes>
class InlineFunction
{
  public:
    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {} // NOLINT: match std::function

    template <class F,
              class = std::enable_if_t<!std::is_same<
                  std::decay_t<F>, InlineFunction>::value>>
    InlineFunction(F &&fn) // NOLINT: implicit like std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r<void, Fn &>::value,
                      "InlineFunction target must be callable as "
                      "void()");
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(_buf))
                Fn(std::forward<F>(fn));
            _ops = &detail::InlineTargetOps<Fn>::ops;
        } else {
            *reinterpret_cast<Fn **>(_buf) =
                new Fn(std::forward<F>(fn));
            _ops = &detail::HeapTargetOps<Fn>::ops;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept { adopt(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            destroyTarget();
            adopt(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { destroyTarget(); }

    explicit operator bool() const { return _ops != nullptr; }

    void
    operator()()
    {
        _ops->invoke(_buf);
    }

    /** Whether a target of type @p Fn lives in the inline buffer (no
        heap allocation); hot-path closures static_assert on it. */
    template <class Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= InlineBytes
               && alignof(Fn) <= alignof(std::max_align_t)
               && std::is_nothrow_move_constructible<Fn>::value;
    }

  private:
    /** Move @p other's target (and ops) into this empty function,
        leaving @p other empty. */
    void
    adopt(InlineFunction &other) noexcept
    {
        _ops = other._ops;
        if (_ops == nullptr)
            return;
        if (_ops->relocate != nullptr)
            _ops->relocate(other._buf, _buf);
        else
            std::memcpy(_buf, other._buf, InlineBytes);
        other._ops = nullptr;
    }

    void
    destroyTarget() noexcept
    {
        if (_ops != nullptr && _ops->destroy != nullptr)
            _ops->destroy(_buf);
    }

    alignas(std::max_align_t) unsigned char _buf[InlineBytes];
    const detail::InlineFunctionOps *_ops = nullptr;
};

} // namespace mcdla

#endif // MCDLA_SIM_INLINE_FUNCTION_HH
