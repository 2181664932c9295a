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
 * selected at construction, not in a runtime flag: empty-check, call,
 * move, and destroy are all one indirect call on a 2-pointer-wide
 * vtable-like struct.
 */

#ifndef MCDLA_SIM_INLINE_FUNCTION_HH
#define MCDLA_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mcdla
{

/** Move-only `void()` callable with an @p InlineBytes SBO buffer. */
template <std::size_t InlineBytes>
class InlineFunction
{
  public:
    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {} // NOLINT: match std::function

    template <
        class F,
        class = std::enable_if_t<
            !std::is_same<std::decay_t<F>, InlineFunction>::value>>
    InlineFunction(F &&fn) // NOLINT: implicit like std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r<void, Fn &>::value,
                      "InlineFunction target must be callable as "
                      "void()");
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(_buf))
                Fn(std::forward<F>(fn));
            _ops = &InlineOpsFor<Fn>::ops;
        } else {
            *reinterpret_cast<Fn **>(_buf) =
                new Fn(std::forward<F>(fn));
            _ops = &HeapOpsFor<Fn>::ops;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept
        : _ops(other._ops)
    {
        if (_ops != nullptr) {
            _ops->relocate(other._buf, _buf);
            other._ops = nullptr;
        }
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            if (_ops != nullptr)
                _ops->destroy(_buf);
            _ops = other._ops;
            if (_ops != nullptr) {
                _ops->relocate(other._buf, _buf);
                other._ops = nullptr;
            }
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction()
    {
        if (_ops != nullptr)
            _ops->destroy(_buf);
    }

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
    struct Ops
    {
        void (*invoke)(void *storage);
        /** Move-construct the target from @p from into @p to and
            destroy the source (one pass: storage is relocated when the
            owning slot pool or heap vector grows). */
        void (*relocate)(void *from, void *to);
        void (*destroy)(void *storage);
    };

    template <class Fn>
    struct InlineOpsFor
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

        static constexpr Ops ops = {&invoke, &relocate, &destroy};
    };

    template <class Fn>
    struct HeapOpsFor
    {
        static void
        invoke(void *storage)
        {
            (**static_cast<Fn **>(storage))();
        }

        static void
        relocate(void *from, void *to)
        {
            *static_cast<Fn **>(to) = *static_cast<Fn **>(from);
        }

        static void
        destroy(void *storage)
        {
            delete *static_cast<Fn **>(storage);
        }

        static constexpr Ops ops = {&invoke, &relocate, &destroy};
    };

    alignas(std::max_align_t) unsigned char _buf[InlineBytes];
    const Ops *_ops = nullptr;
};

} // namespace mcdla

#endif // MCDLA_SIM_INLINE_FUNCTION_HH
