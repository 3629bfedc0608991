/**
 * @file
 * Spike-based data input and output (paper §4.2.1, §4.2.2, Fig. 9a/b).
 *
 * Input: the spike driver converts an N-bit value into N time slots of
 * weighted spikes, least-significant-bit first (LSBF); slot t carries
 * weight 2^t.  This removes the DACs of voltage-level schemes.
 *
 * Output: the integrate-and-fire unit accumulates bit-line current on
 * a capacitor and emits one spike per threshold crossing into a
 * counter, so the count is proportional to Σ input·conductance — an
 * ADC-free digitisation.
 *
 * This is the per-pulse oracle.  The crossbar model runs the
 * collapsed, bit-identical form of the same datapath
 * (reram::CrossbarArray::matVecCodesBatch, DESIGN.md §7), and the
 * tests and micro benches compare it against these classes.  Part of
 * the pl_test_support library (tests/support), which only the tests,
 * the micro benches and examples/crossbar_demo link.
 */

#ifndef PIPELAYER_TESTS_SUPPORT_SPIKE_HH_
#define PIPELAYER_TESTS_SUPPORT_SPIKE_HH_

#include <cstdint>
#include <vector>

namespace pipelayer {
namespace reram {

/**
 * A weighted spike train: presence/absence of a spike in each of
 * @c bits LSB-first time slots.  Slot t has weight 2^t.
 */
struct SpikeTrain
{
    std::vector<bool> slots; //!< slots[t] == spike present at weight 2^t

    /** Number of time slots (the input resolution N). */
    int bits() const { return static_cast<int>(slots.size()); }

    /** Number of slots that actually carry a spike. */
    int64_t spikeCount() const;

    /** The encoded integer value Σ slots[t] 2^t. */
    int64_t value() const;
};

/**
 * Spike driver: converts digital codes to spike trains and, in write
 * mode, programming pulse sequences (paper Fig. 9a).
 */
class SpikeDriver
{
  public:
    /**
     * Largest resolution whose full 2^bits code table is precomputed.
     * Tables are shared across drivers and built once per resolution,
     * so encode() at or below this width is a table copy with no
     * per-bit work; wider resolutions encode on the fly.
     */
    static constexpr int kMemoBits = 12;

    /** @param bits input resolution N (time slots per value). */
    explicit SpikeDriver(int bits);

    /**
     * Encode an unsigned code into an LSBF weighted spike train.
     * @pre 0 <= code < 2^bits.
     */
    SpikeTrain encode(int64_t code) const;

    /**
     * Borrow the memoized train for @p code without copying, or
     * nullptr when bits > kMemoBits (fall back to encode()).  The
     * reference lives for the whole process.
     */
    const SpikeTrain *memoized(int64_t code) const;

    /** Decode is exact: encode(code).value() == code. */
    int bits() const { return bits_; }

  private:
    int bits_;
    /** Shared per-resolution code table, or nullptr above kMemoBits. */
    const std::vector<SpikeTrain> *table_ = nullptr;
};

/**
 * Integrate-and-fire output stage plus counter (paper Fig. 9b).
 *
 * The functional model integrates "charge" in units where one unit of
 * charge equals one comparator threshold: a K-times stronger bit-line
 * current makes the comparator fire K times (paper §4.2.2), so the
 * final count equals the integer accumulation of input x conductance
 * products, clamped to the counter width.
 */
class IntegrateFire
{
  public:
    /** @param counter_bits width of the output spike counter. */
    explicit IntegrateFire(int counter_bits = 48);

    /** Reset the accumulated charge and the counter. */
    void reset();

    /**
     * Integrate one time slot's bit-line charge.
     * @param charge integer charge units (input weight x Σ conductance).
     */
    void integrate(int64_t charge);

    /** Spike count so far (saturates at counter capacity). */
    int64_t count() const;

    /** True if the counter has saturated (an accuracy hazard). */
    bool saturated() const { return saturated_; }

  private:
    int64_t max_count_;
    int64_t count_ = 0;
    bool saturated_ = false;
};

} // namespace reram
} // namespace pipelayer

#endif // PIPELAYER_TESTS_SUPPORT_SPIKE_HH_
