/**
 * @file
 * OptionParser implementation.
 */

#include "core/options.hh"

#include "sim/logging.hh"
#include "sim/text.hh"

namespace mcdla
{

OptionParser::OptionParser(std::string program, std::string description)
    : _program(std::move(program)), _description(std::move(description))
{}

void
OptionParser::addString(const std::string &name, std::string def,
                        std::string help)
{
    _order.push_back(name);
    _specs[name] = Spec{Kind::String, std::move(help), std::move(def)};
}

void
OptionParser::addInt(const std::string &name, std::int64_t def,
                     std::string help)
{
    _order.push_back(name);
    _specs[name] =
        Spec{Kind::Int, std::move(help), std::to_string(def)};
}

void
OptionParser::addDouble(const std::string &name, double def,
                        std::string help)
{
    _order.push_back(name);
    _specs[name] =
        Spec{Kind::Double, std::move(help), std::to_string(def)};
}

void
OptionParser::addFlag(const std::string &name, std::string help)
{
    _order.push_back(name);
    _specs[name] = Spec{Kind::Flag, std::move(help), "0"};
}

OptionParser::Spec &
OptionParser::lookup(const std::string &name, Kind kind)
{
    auto it = _specs.find(name);
    if (it == _specs.end())
        panic("unknown option '--%s'", name.c_str());
    if (it->second.kind != kind)
        panic("option '--%s' accessed with the wrong type",
              name.c_str());
    return it->second;
}

const OptionParser::Spec &
OptionParser::lookup(const std::string &name, Kind kind) const
{
    return const_cast<OptionParser *>(this)->lookup(name, kind);
}

bool
OptionParser::parse(int argc, const char *const *argv, std::ostream &err)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(err);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            _positional.push_back(std::move(arg));
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool have_value = false;
        if (auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            have_value = true;
        }
        auto it = _specs.find(name);
        if (it == _specs.end()) {
            err << _program << ": unknown option '--" << name << "'\n";
            printUsage(err);
            return false;
        }
        Spec &spec = it->second;
        if (spec.kind == Kind::Flag) {
            spec.value = have_value ? value : "1";
            spec.set = true;
            continue;
        }
        if (!have_value) {
            if (i + 1 >= argc) {
                err << _program << ": option '--" << name
                    << "' needs a value\n";
                return false;
            }
            value = argv[++i];
        }
        // Validate numeric options eagerly: an Int must be a 64-bit
        // integer as a whole, a Double a finite number.
        if ((spec.kind == Kind::Int && !readNumber<std::int64_t>(value))
            || (spec.kind == Kind::Double && !readNumber<double>(value))) {
            err << _program << ": option '--" << name
                << "' expects a number ("
                << (spec.kind == Kind::Int ? "an integer" : "finite")
                << "), got '" << value << "'\n";
            return false;
        }
        spec.value = std::move(value);
        spec.set = true;
    }
    return true;
}

const std::string &
OptionParser::getString(const std::string &name) const
{
    return lookup(name, Kind::String).value;
}

std::int64_t
OptionParser::getInt(const std::string &name) const
{
    return readNumber<std::int64_t>(lookup(name, Kind::Int).value)
        .value();
}

double
OptionParser::getDouble(const std::string &name) const
{
    return readNumber<double>(lookup(name, Kind::Double).value).value();
}

void
OptionParser::checkIntRange(const std::string &name, std::int64_t value,
                            std::int64_t min, std::int64_t max)
{
    if (value < min && min == 1)
        fatal("--%s must be positive (got %lld)", name.c_str(),
              static_cast<long long>(value));
    if (value < min)
        fatal("--%s must be >= %lld (got %lld)", name.c_str(),
              static_cast<long long>(min), static_cast<long long>(value));
    if (value > max)
        fatal("--%s must be <= %lld (got %lld)", name.c_str(),
              static_cast<long long>(max), static_cast<long long>(value));
}

bool
OptionParser::getFlag(const std::string &name) const
{
    return lookup(name, Kind::Flag).value == "1";
}

bool
OptionParser::wasSet(const std::string &name) const
{
    auto it = _specs.find(name);
    if (it == _specs.end())
        panic("unknown option '--%s'", name.c_str());
    return it->second.set;
}

void
OptionParser::printUsage(std::ostream &os) const
{
    os << _description << "\n\nUsage: " << _program
       << " [options]\n\nOptions:\n";
    for (const std::string &name : _order) {
        const Spec &spec = _specs.at(name);
        std::string left = "  --" + name;
        if (spec.kind != Kind::Flag)
            left += " <" + std::string(
                spec.kind == Kind::String
                    ? "str"
                    : (spec.kind == Kind::Int ? "int" : "num"))
                + ">";
        os << left;
        for (std::size_t pad = left.size(); pad < 26; ++pad)
            os << ' ';
        os << spec.help;
        if (spec.kind != Kind::Flag && !spec.value.empty())
            os << " [default: " << spec.value << "]";
        os << '\n';
    }
}

} // namespace mcdla
