/**
 * @file
 * OptionParser implementation.
 */

#include "core/options.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"

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
        // Validate numeric options eagerly: an Int must be an integer
        // as a whole (getInt() reads it with strtoll), a Double a
        // finite number.
        if (spec.kind == Kind::Int) {
            char *end = nullptr;
            errno = 0;
            std::strtoll(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
                err << _program << ": option '--" << name
                    << "' expects a number (an integer), got '" << value
                    << "'\n";
                return false;
            }
        } else if (spec.kind == Kind::Double) {
            char *end = nullptr;
            const double number = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0'
                || !std::isfinite(number)) {
                err << _program << ": option '--" << name
                    << "' expects a number (finite), got '" << value
                    << "'\n";
                return false;
            }
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
    return std::strtoll(lookup(name, Kind::Int).value.c_str(), nullptr,
                        10);
}

double
OptionParser::getDouble(const std::string &name) const
{
    return std::strtod(lookup(name, Kind::Double).value.c_str(),
                       nullptr);
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
