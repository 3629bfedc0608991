/**
 * @file
 * The JSON writer's number format spelled with printf and strtod: the
 * loop json::Value::formatNumber ran before it moved to <charconv>,
 * kept verbatim as the oracle test_observability compares it with.
 *
 * Part of the pl_test_support library (tests/support): only the
 * tests and the micro benches link it, no program runs it.
 */

#ifndef PIPELAYER_TESTS_SUPPORT_JSON_REFERENCE_HH_
#define PIPELAYER_TESTS_SUPPORT_JSON_REFERENCE_HH_

#include <string>

namespace pipelayer {
namespace json {
namespace reference {

/**
 * "%lld" of a finite integral @p v below 1e15 in magnitude; otherwise
 * the first of "%.15g", "%.16g" and "%.17g" that strtod reads back as
 * @p v.  @pre @p v is finite.
 */
std::string formatNumber(double v);

} // namespace reference
} // namespace json
} // namespace pipelayer

#endif // PIPELAYER_TESTS_SUPPORT_JSON_REFERENCE_HH_
