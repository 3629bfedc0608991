#include "common/args.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace pipelayer {

ArgParser::ArgParser(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            const size_t eq = arg.find('=');
            if (eq == std::string::npos)
                options_[arg.substr(2)] = "";
            else
                options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        } else {
            positionals_.push_back(arg);
        }
    }
}

std::string
ArgParser::positional(size_t i, const std::string &def) const
{
    return i < positionals_.size() ? positionals_[i] : def;
}

std::string
ArgParser::str(const std::string &key, const std::string &def) const
{
    const auto it = options_.find(key);
    return it != options_.end() ? it->second : def;
}

double
ArgParser::number(const std::string &key, double def) const
{
    const auto it = options_.find(key);
    if (it == options_.end())
        return def;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("--%s=%s is not a number", key.c_str(),
              it->second.c_str());
    if (errno == ERANGE)
        fatal("--%s=%s is out of range", key.c_str(), it->second.c_str());
    if (!std::isfinite(v))
        fatal("--%s=%s is not a finite number", key.c_str(),
              it->second.c_str());
    return v;
}

int64_t
ArgParser::integer(const std::string &key, int64_t def) const
{
    const auto it = options_.find(key);
    if (it == options_.end())
        return def;
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0')
        fatal("--%s=%s is not an integer", key.c_str(),
              it->second.c_str());
    if (errno == ERANGE)
        fatal("--%s=%s is out of range", key.c_str(), it->second.c_str());
    return v;
}

bool
ArgParser::flag(const std::string &key) const
{
    return options_.count(key) > 0;
}

void
ArgParser::rejectUnknown(const std::vector<std::string> &known) const
{
    for (const auto &[key, value] : options_) {
        (void)value;
        if (std::find(known.begin(), known.end(), key) == known.end())
            fatal("unknown option --%s", key.c_str());
    }
}

} // namespace pipelayer
