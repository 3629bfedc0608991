#include "support/spike.hh"

#include <mutex>

#include "common/logging.hh"

namespace pipelayer {
namespace reram {

namespace {

/**
 * Shared memo tables, one per resolution <= kMemoBits, built lazily
 * and exactly once (thread-safe).  Entry @c code of the table for
 * @c bits is encode(code) — at most ~2^13 small trains in total, and
 * only for resolutions actually used.
 */
const std::vector<SpikeTrain> &
tableFor(int bits)
{
    static std::once_flag flags[SpikeDriver::kMemoBits];
    static std::vector<SpikeTrain> tables[SpikeDriver::kMemoBits];
    std::vector<SpikeTrain> &table = tables[bits - 1];
    std::call_once(flags[bits - 1], [&table, bits] {
        const int64_t n = int64_t{1} << bits;
        table.resize(static_cast<size_t>(n));
        for (int64_t code = 0; code < n; ++code) {
            SpikeTrain &train = table[static_cast<size_t>(code)];
            train.slots.resize(static_cast<size_t>(bits));
            for (int t = 0; t < bits; ++t)
                train.slots[static_cast<size_t>(t)] = (code >> t) & 1;
        }
    });
    return table;
}

} // namespace

int64_t
SpikeTrain::spikeCount() const
{
    int64_t n = 0;
    for (bool s : slots)
        n += s ? 1 : 0;
    return n;
}

int64_t
SpikeTrain::value() const
{
    int64_t v = 0;
    for (int t = 0; t < bits(); ++t) {
        if (slots[static_cast<size_t>(t)])
            v += int64_t{1} << t;
    }
    return v;
}

SpikeDriver::SpikeDriver(int bits) : bits_(bits)
{
    PL_ASSERT(bits >= 1 && bits <= 32, "unsupported spike resolution %d",
              bits);
    if (bits <= kMemoBits)
        table_ = &tableFor(bits);
}

SpikeTrain
SpikeDriver::encode(int64_t code) const
{
    PL_ASSERT(code >= 0 && code < (int64_t{1} << bits_),
              "code %lld out of %d-bit range", (long long)code, bits_);
    if (table_)
        return (*table_)[static_cast<size_t>(code)];
    SpikeTrain train;
    train.slots.resize(static_cast<size_t>(bits_));
    for (int t = 0; t < bits_; ++t)
        train.slots[static_cast<size_t>(t)] = (code >> t) & 1;
    return train;
}

const SpikeTrain *
SpikeDriver::memoized(int64_t code) const
{
    PL_ASSERT(code >= 0 && code < (int64_t{1} << bits_),
              "code %lld out of %d-bit range", (long long)code, bits_);
    return table_ ? &(*table_)[static_cast<size_t>(code)] : nullptr;
}

IntegrateFire::IntegrateFire(int counter_bits)
{
    PL_ASSERT(counter_bits >= 1 && counter_bits <= 62,
              "unsupported counter width %d", counter_bits);
    max_count_ = (int64_t{1} << counter_bits) - 1;
}

void
IntegrateFire::reset()
{
    count_ = 0;
    saturated_ = false;
}

void
IntegrateFire::integrate(int64_t charge)
{
    PL_ASSERT(charge >= 0, "negative charge %lld", (long long)charge);
    // One unit of charge crosses the comparator threshold once, so
    // the counter advances by the full charge (paper §4.2.2: a K-times
    // stronger current yields K times the spikes).
    if (count_ > max_count_ - charge) {
        count_ = max_count_;
        saturated_ = true;
    } else {
        count_ += charge;
    }
}

int64_t
IntegrateFire::count() const
{
    return count_;
}

} // namespace reram
} // namespace pipelayer
