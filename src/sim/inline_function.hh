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
 * move, and destroy are all one indirect call on a small vtable-like
 * struct.
 *
 * Comparable targets opt into value semantics: an inline, trivially
 * copyable target type that defines `operator==` gets sameTarget()
 * and clone(), which is what lets a channel FIFO store a run of
 * identical transfers as one entry. Every other callable (lambdas,
 * heap-stored targets) compares unequal to everything.
 */

#ifndef MCDLA_SIM_INLINE_FUNCTION_HH
#define MCDLA_SIM_INLINE_FUNCTION_HH

#include <cassert>
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

    /**
     * Whether both functions hold equal values of one comparable
     * target type (see comparable()). False for empty functions,
     * different target types, and any non-comparable target — a
     * lambda never equals anything, not even itself.
     */
    bool
    sameTarget(const InlineFunction &other) const
    {
        return _ops != nullptr && _ops == other._ops
               && _ops->equal != nullptr
               && _ops->equal(_buf, other._buf);
    }

    /**
     * A copy of this function's target. Precondition: the target is
     * comparable, i.e. sameTarget(*this) holds; callables without
     * value semantics are move-only.
     */
    InlineFunction
    clone() const
    {
        assert(_ops != nullptr && _ops->clone != nullptr);
        InlineFunction copy;
        _ops->clone(_buf, copy._buf);
        copy._ops = _ops;
        return copy;
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

    /** Whether a target of type @p Fn supports sameTarget() and
        clone(): stored inline, trivially copyable, and equality
        comparable. */
    template <class Fn>
    static constexpr bool
    comparable()
    {
        return fitsInline<Fn>() && std::is_trivially_copyable<Fn>::value
               && HasEqual<Fn>::value;
    }

  private:
    template <class Fn, class = void>
    struct HasEqual : std::false_type
    {
    };

    template <class Fn>
    struct HasEqual<Fn,
                    std::enable_if_t<std::is_convertible<
                        decltype(std::declval<const Fn &>()
                                 == std::declval<const Fn &>()),
                        bool>::value>> : std::true_type
    {
    };

    struct Ops
    {
        void (*invoke)(void *storage);
        /** Move-construct the target from @p from into @p to and
            destroy the source (one pass: storage is relocated when the
            owning slot pool or heap vector grows). */
        void (*relocate)(void *from, void *to);
        void (*destroy)(void *storage);
        /** Value equality of two targets of this type; null when the
            type is not comparable(). */
        bool (*equal)(const void *a, const void *b);
        /** Copy-construct the target from @p from into @p to; null
            when the type is not comparable(). */
        void (*clone)(const void *from, void *to);
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

        static bool
        equal(const void *a, const void *b)
        {
            return *static_cast<const Fn *>(a)
                   == *static_cast<const Fn *>(b);
        }

        static void
        clone(const void *from, void *to)
        {
            ::new (to) Fn(*static_cast<const Fn *>(from));
        }

        static constexpr Ops
        makeOps()
        {
            if constexpr (comparable<Fn>())
                return {&invoke, &relocate, &destroy, &equal, &clone};
            else
                return {&invoke, &relocate, &destroy, nullptr, nullptr};
        }

        static constexpr Ops ops = makeOps();
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

        static constexpr Ops ops = {&invoke, &relocate, &destroy,
                                    nullptr, nullptr};
    };

    alignas(std::max_align_t) unsigned char _buf[InlineBytes];
    const Ops *_ops = nullptr;
};

} // namespace mcdla

#endif // MCDLA_SIM_INLINE_FUNCTION_HH
