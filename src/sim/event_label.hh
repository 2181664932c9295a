/**
 * @file
 * Lazily-materialized event labels for the DES hot path.
 *
 * Event labels are pure diagnostics: the profiler's per-label table,
 * the determinism-audit (tick, label) stream hash, and cold warn/panic
 * messages. Building a std::string per scheduled event — especially
 * a `component.suffix` concatenation — was one of the kernel's biggest
 * allocation sources, paid even when nothing ever read the label.
 *
 * EventLabel instead captures *how to build* the text: a string
 * literal, or a pointer to a component's stable name plus a literal
 * suffix ("dotted", materializing "name.suffix"). Only labels built
 * from a temporary std::string own heap storage. Materialization
 * (appendTo) happens exactly when a profiler or causal recorder is
 * attached, into a caller-owned scratch buffer that the EventQueue
 * reuses across events — so the default run schedules and executes
 * events without ever touching the allocator for labels.
 *
 * Lifetime: a dotted label borrows the base string. That is the same
 * contract as the event callback capturing `this`: the component must
 * outlive its pending events.
 */

#ifndef MCDLA_SIM_EVENT_LABEL_HH
#define MCDLA_SIM_EVENT_LABEL_HH

#include <string>
#include <utility>

namespace mcdla
{

/** A cheap, possibly-unmaterialized event name (see file comment). */
class EventLabel
{
  public:
    EventLabel() = default;

    /** Static text; not copied (string literals at call sites). */
    EventLabel(const char *literal) // NOLINT: implicit by design
        : _kind(Kind::Literal)
    {
        _literal = literal;
    }

    /** Dynamic text; takes ownership (one allocation, cold paths). */
    EventLabel(std::string text) // NOLINT: implicit by design
        : _kind(Kind::Owned)
    {
        _owned = new std::string(std::move(text));
    }

    /** "base.suffix" without concatenating: borrows @p base, which
        must outlive the event (see lifetime note above). */
    static EventLabel
    dotted(const std::string &base, const char *suffix)
    {
        EventLabel label;
        label._kind = Kind::Dotted;
        label._dotted.base = &base;
        label._dotted.suffix = suffix;
        return label;
    }

    EventLabel(EventLabel &&other) noexcept { moveFrom(other); }

    EventLabel &
    operator=(EventLabel &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    EventLabel(const EventLabel &) = delete;
    EventLabel &operator=(const EventLabel &) = delete;

    ~EventLabel() { destroy(); }

    /** Append the materialized text to @p out (scratch reuse). */
    void
    appendTo(std::string &out) const
    {
        switch (_kind) {
          case Kind::None:
            break;
          case Kind::Literal:
            out += _literal;
            break;
          case Kind::Dotted:
            out += *_dotted.base;
            out += '.';
            out += _dotted.suffix;
            break;
          case Kind::Owned:
            out += *_owned;
            break;
        }
    }

    /** Materialize as a fresh string (cold paths: warnings, panics). */
    std::string
    str() const
    {
        std::string out;
        appendTo(out);
        return out;
    }

  private:
    enum class Kind : unsigned char { None, Literal, Dotted, Owned };

    void
    destroy()
    {
        if (_kind == Kind::Owned)
            delete _owned;
        _kind = Kind::None;
    }

    void
    moveFrom(EventLabel &other) noexcept
    {
        _kind = other._kind;
        switch (_kind) {
          case Kind::None:
            break;
          case Kind::Literal:
            _literal = other._literal;
            break;
          case Kind::Dotted:
            _dotted = other._dotted;
            break;
          case Kind::Owned:
            _owned = other._owned;
            break;
        }
        other._kind = Kind::None;
    }

    struct Dotted
    {
        const std::string *base;
        const char *suffix;
    };

    Kind _kind = Kind::None;
    union
    {
        const char *_literal;
        Dotted _dotted;
        std::string *_owned;
    };
};

} // namespace mcdla

#endif // MCDLA_SIM_EVENT_LABEL_HH
