/**
 * @file
 * ReRAM device, array and peripheral parameters.
 *
 * The timing/energy constants are the ones the paper uses (§6.2):
 * per-spike read 29.31 ns / 1.08 pJ and per-spike write 50.88 ns /
 * 3.91 nJ, reported in the paper's reference [46]; the area model is a
 * single per-subarray constant calibrated to land the default
 * configuration at the paper's reported 82.6 mm^2 scale (ref. [47]
 * data is not public in machine-readable form).
 */

#ifndef PIPELAYER_RERAM_PARAMS_HH_
#define PIPELAYER_RERAM_PARAMS_HH_

#include <cstdint>

#include "common/units.hh"

namespace pipelayer {
namespace reram {

/**
 * Parameters of one ReRAM subarray and its spike peripherals.
 *
 * Valid ranges are the ones validate() enforces; each field's comment
 * repeats its own.
 */
struct DeviceParams
{
    /** Word lines (rows) per subarray; the Fig. 5 tiling unit; >= 1. */
    int64_t array_rows = 128;
    /** Bit lines (columns) per subarray; >= 1. */
    int64_t array_cols = 128;

    /**
     * Bits stored per cell (paper default: 4-bit cells, §5.1); in
     * [1, 8], so a cell's code fits one byte.
     */
    int cell_bits = 4;
    /**
     * Data/weight resolution (paper default 16-bit, like ISAAC); in
     * [1, 32] and a multiple of cell_bits.
     */
    int data_bits = 16;
    /**
     * Width of the integrate-and-fire output spike counter
     * (Fig. 9b); a narrow counter saturates on large dot products.
     * Valid range 1..62.
     */
    int counter_bits = 48;

    // The physical constants below must be finite and >= 0.

    /** Seconds per input spike slot during compute/read. */
    double read_latency_per_spike = units::ns(29.31);
    /** Seconds per spike slot during programming/write. */
    double write_latency_per_spike = units::ns(50.88);
    /** Joules per read spike (one word line, one time slot). */
    double read_energy_per_spike = units::pJ(1.08);
    /** Joules per write spike. */
    double write_energy_per_spike = units::nJ(3.91);

    /**
     * Area of one subarray including spike drivers, integrate-and-fire
     * units and its share of the activation/connection logic, in mm^2.
     * Calibrated so the default-G large-VGG configuration reproduces
     * the paper's ~82.6 mm^2 (see DESIGN.md §5).
     */
    double array_area_mm2 = 0.00025;

    /** Area of one memory (buffer) subarray in mm^2. */
    double mem_array_area_mm2 = 0.00025;

    /**
     * Energy of integrate-and-fire digitisation, activation lookup,
     * connection routing and control, expressed as a multiple of the
     * raw array read energy.  Calibrated so the simulator's power
     * efficiency lands at the paper's reported 142.9 GOPS/s/W
     * (§6.6); the per-spike constant alone covers only the cell read.
     */
    double periph_energy_factor = 12.0;

    /** Joules per bit written into a memory (buffer) subarray. */
    double mem_write_energy_per_bit = units::pJ(1.0);

    /** Joules per bit read from a memory (buffer) subarray. */
    double mem_read_energy_per_bit = units::pJ(0.5);

    /**
     * Fixed controller / host-interface / sequencing energy per
     * image.  Irrelevant for ImageNet-scale networks but the dominant
     * term for MNIST-scale MLPs; calibrated so the best-case testing
     * energy saving lands near the paper's reported ~70x (Mnist-A).
     */
    double controller_energy_per_image = units::uJ(15.0);

    /**
     * @name Device non-ideality model (extension study)
     *
     * The paper assumes ideal programming; real multi-level ReRAM
     * suffers write variation and stuck cells.  These knobs enable
     * the variation ablation (bench_ablation_variation); both default
     * to the paper's ideal-device assumption.
     */
    ///@{

    /**
     * Std-dev of programming error, as a fraction of the full
     * conductance range; applied (and re-drawn) on every cell write.
     * Finite and >= 0.
     */
    double write_noise_sigma = 0.0;

    /**
     * Fraction of cells stuck at a random extreme conductance; in
     * [0, 1].
     */
    double stuck_at_fault_rate = 0.0;

    /** Seed for the deterministic variation draws. */
    uint64_t variation_seed = 0x5eed;
    ///@}

    /**
     * Throw ConfigError, naming the key, unless every field is in its
     * valid range: the array shape is positive, cell_bits is in
     * [1, 8], data_bits is in [1, 32] and a multiple of cell_bits,
     * counter_bits is in [1, 62], a full column's raw sum
     * array_rows x (2^data_bits - 1) x maxCellCode() stays below
     * 2^62, write_noise_sigma is >= 0, stuck_at_fault_rate is in
     * [0, 1], and every physical constant is finite and >= 0.
     */
    void validate() const;

    /** Number of weight bit-slice groups = data_bits / cell_bits. */
    int sliceGroups() const { return data_bits / cell_bits; }

    /**
     * True when programming can miss its target: write noise or stuck
     * cells.  Otherwise every cell stores exactly the code written.
     */
    bool hasVariation() const
    {
        return write_noise_sigma > 0.0 || stuck_at_fault_rate > 0.0;
    }

    /** Highest conductance code a cell can store (2^cell_bits - 1). */
    int64_t maxCellCode() const { return (int64_t{1} << cell_bits) - 1; }

    /**
     * Seconds to stream one @c data_bits input through an array in
     * compute mode: one time slot per bit (paper §4.2.1).
     */
    double mvmLatency() const
    {
        return read_latency_per_spike * data_bits;
    }

    /** Seconds to program one cell at @c cell_bits resolution. */
    double cellWriteLatency() const
    {
        return write_latency_per_spike * cell_bits;
    }

    /** The paper's default device configuration. */
    static DeviceParams paperDefault() { return DeviceParams{}; }
};

} // namespace reram
} // namespace pipelayer

#endif // PIPELAYER_RERAM_PARAMS_HH_
