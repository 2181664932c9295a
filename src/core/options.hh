/**
 * @file
 * Minimal command-line option parser for the driver tools.
 *
 * Supports `--name value`, `--name=value`, and boolean switches, with
 * typed accessors, defaults, and generated --help text. Deliberately
 * dependency-free (the simulator builds offline).
 */

#ifndef MCDLA_CORE_OPTIONS_HH
#define MCDLA_CORE_OPTIONS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace mcdla
{

/** Declarative command-line options with typed access. */
class OptionParser
{
  public:
    OptionParser(std::string program, std::string description);

    /// @name Option declaration (call before parse())
    /// @{
    void addString(const std::string &name, std::string def,
                   std::string help);
    void addInt(const std::string &name, std::int64_t def,
                std::string help);
    void addDouble(const std::string &name, double def,
                   std::string help);
    void addFlag(const std::string &name, std::string help);
    /// @}

    /**
     * Parse argv.
     *
     * @return false if --help was requested or an error occurred (the
     *         message/usage is printed to @p err); callers should exit.
     */
    bool parse(int argc, const char *const *argv, std::ostream &err);

    /// @name Typed accessors (fatal on unknown names)
    /// @{
    const std::string &getString(const std::string &name) const;
    std::int64_t getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getFlag(const std::string &name) const;

    /**
     * The checked integer read: getInt(name) as a T of at least
     * @p min. Fatal naming the option when the value is smaller or
     * does not fit T (a field's type is its upper bound).
     */
    template <typename T>
    T
    getInt(const std::string &name, T min) const
    {
        const std::int64_t value = getInt(name);
        checkIntRange(name, value, static_cast<std::int64_t>(min),
                      static_cast<std::int64_t>(
                          std::numeric_limits<T>::max()));
        return static_cast<T>(value);
    }
    /// @}

    /** Whether the user supplied the option explicitly. */
    bool wasSet(const std::string &name) const;

    /** Positional (non-option) arguments. */
    const std::vector<std::string> &positional() const
    {
        return _positional;
    }

    void printUsage(std::ostream &os) const;

  private:
    enum class Kind { String, Int, Double, Flag };

    struct Spec
    {
        Kind kind;
        std::string help;
        std::string value; // canonical textual value
        bool set = false;
    };

    Spec &lookup(const std::string &name, Kind kind);
    const Spec &lookup(const std::string &name, Kind kind) const;

    static void checkIntRange(const std::string &name, std::int64_t value,
                              std::int64_t min, std::int64_t max);

    std::string _program;
    std::string _description;
    std::vector<std::string> _order;
    std::map<std::string, Spec> _specs;
    std::vector<std::string> _positional;
};

} // namespace mcdla

#endif // MCDLA_CORE_OPTIONS_HH
