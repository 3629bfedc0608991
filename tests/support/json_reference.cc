#include "support/json_reference.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace pipelayer {
namespace json {
namespace reference {

std::string
formatNumber(double v)
{
    PL_ASSERT(std::isfinite(v),
              "JSON cannot represent non-finite number");
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[40];
    for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

} // namespace reference
} // namespace json
} // namespace pipelayer
