#include "common/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace pipelayer {

namespace {

/** printf-style formatting into a string. */
std::string
vformat(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return std::string(fmt);
    std::string out(static_cast<size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

/** Emit one line with a severity prefix to stderr. */
void
emit(const char *prefix, const std::string &msg)
{
    std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
}

} // namespace

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("fatal: ", vformat(fmt, args));
    va_end(args);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("panic: ", vformat(fmt, args));
    va_end(args);
    std::abort();
}

} // namespace pipelayer
