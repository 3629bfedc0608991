/**
 * @file
 * Tests of the parallel execution engine and its determinism
 * contract: every hot loop must produce bit-identical results at
 * PL_THREADS=1 (serial fallback) and PL_THREADS=N, because workers
 * own disjoint output ranges and keep the serial per-element
 * floating-point evaluation order.
 *
 * Also holds the CircularBuffer regression tests for the
 * incremental live-count rewrite (the O(capacity) scan per write made
 * the scheduler quadratic in buffer depth).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "arch/buffers.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/pipelined_trainer.hh"
#include "nn/layers.hh"
#include "nn/network.hh"
#include "reram/crossbar.hh"
#include "support/one_window.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace pipelayer {
namespace {

/** Restores the ambient thread count when a test scope exits. */
class ThreadCountGuard
{
  public:
    explicit ThreadCountGuard(int64_t n) : saved_(threadCount())
    {
        setThreadCount(n);
    }
    ~ThreadCountGuard() { setThreadCount(saved_); }

  private:
    int64_t saved_;
};

/** Bitwise tensor equality (EXPECT_EQ on floats would accept -0.0). */
bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    if (a.shape() != b.shape())
        return false;
    return std::memcmp(a.data(), b.data(),
                       sizeof(float) *
                           static_cast<size_t>(a.numel())) == 0;
}

/** Every (begin, end) chunk one parallel_for call hands its body. */
class ChunkLog
{
  public:
    std::function<void(int64_t, int64_t)> body()
    {
        return [this](int64_t b, int64_t e) {
            std::lock_guard<std::mutex> lk(mu_);
            chunks_.emplace_back(b, e);
        };
    }

    /** The chunks sorted by begin; they must tile [begin, end). */
    std::vector<std::pair<int64_t, int64_t>> sorted()
    {
        std::sort(chunks_.begin(), chunks_.end());
        return chunks_;
    }

  private:
    std::mutex mu_;
    std::vector<std::pair<int64_t, int64_t>> chunks_;
};

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    ThreadCountGuard guard(4);
    // Above the floor (four indices fill a chunk), below it, and the
    // coarse one-index-per-chunk form.
    for (const int64_t work : {kMinChunkWork / 4, int64_t{1}, int64_t{0}}) {
        SCOPED_TRACE("work " + std::to_string(work));
        std::vector<std::atomic<int>> hits(1000);
        auto mark = [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i)
                ++hits[static_cast<size_t>(i)];
        };
        if (work > 0)
            parallel_for(0, 1000, work, mark);
        else
            parallel_for(0, 1000, mark);
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, ChunksCarryTheWorkFloor)
{
    ThreadCountGuard guard(4);
    const int64_t half = kMinChunkWork / 2;
    using Chunks = std::vector<std::pair<int64_t, int64_t>>;
    {
        // Exactly two floors of work: two chunks, not four.
        ChunkLog log;
        parallel_for(0, 4, half, log.body());
        EXPECT_EQ(log.sorted(), (Chunks{{0, 2}, {2, 4}}));
    }
    {
        // Enough work for many floors: one chunk per thread.
        ChunkLog log;
        parallel_for(0, 100, kMinChunkWork, log.body());
        EXPECT_EQ(log.sorted(),
                  (Chunks{{0, 25}, {25, 50}, {50, 75}, {75, 100}}));
    }
    {
        // The coarse form: every index is worth a chunk.
        ChunkLog log;
        parallel_for(0, 3, log.body());
        EXPECT_EQ(log.sorted(), (Chunks{{0, 1}, {1, 2}, {2, 3}}));
    }
}

TEST(ParallelFor, EmptyAndTinyRanges)
{
    ThreadCountGuard guard(4);
    int calls = 0;
    parallel_for(5, 5, kMinChunkWork, [&](int64_t, int64_t) { ++calls; });
    parallel_for(5, 5, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    // A range that cannot fill two chunks of at least the floor runs
    // inline in one piece: 1.5 floors, three indices just below one
    // floor each, and a huge range of 1-op indices.
    auto whole = [&](int64_t b, int64_t e) {
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 3);
        ++calls;
    };
    parallel_for(0, 3, kMinChunkWork / 2, whole);
    parallel_for(0, 3, kMinChunkWork - 1, whole);
    EXPECT_EQ(calls, 2);
    parallel_for(0, 2 * kMinChunkWork - 1, 1,
                 [&](int64_t b, int64_t e) {
                     EXPECT_EQ(b, 0);
                     EXPECT_EQ(e, 2 * kMinChunkWork - 1);
                     ++calls;
                 });
    // A one-index coarse loop runs inline too.
    parallel_for(7, 8, [&](int64_t b, int64_t e) {
        EXPECT_EQ(b, 7);
        EXPECT_EQ(e, 8);
        EXPECT_FALSE(inParallelRegion());
        ++calls;
    });
    EXPECT_EQ(calls, 4);
}

TEST(ParallelFor, NestedCallsRunInline)
{
    ThreadCountGuard guard(4);
    std::atomic<int> inner_regions{0};
    parallel_for(0, 8, [&](int64_t b, int64_t e) {
        EXPECT_TRUE(inParallelRegion());
        for (int64_t i = b; i < e; ++i) {
            auto inner = [&](int64_t ib, int64_t ie) {
                // Nested region must arrive as one inline chunk.
                EXPECT_EQ(ib, 0);
                EXPECT_EQ(ie, 100);
                ++inner_regions;
            };
            parallel_for(0, 100, kMinChunkWork, inner);
            parallel_for(0, 100, inner);
        }
    });
    EXPECT_FALSE(inParallelRegion());
    EXPECT_EQ(inner_regions.load(), 16);
}

TEST(ParallelFor, SerialFallbackRunsCallerOnly)
{
    ThreadCountGuard guard(1);
    int calls = 0;
    auto whole = [&](int64_t b, int64_t e) {
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 10000);
        EXPECT_FALSE(inParallelRegion());
        ++calls;
    };
    parallel_for(0, 10000, kMinChunkWork, whole);
    parallel_for(0, 10000, whole);
    EXPECT_EQ(calls, 2);
}

TEST(ThreadCount, OutOfRangeIsRejected)
{
    ThreadCountGuard guard(2);
    EXPECT_THROW(setThreadCount(0), ConfigError);
    EXPECT_THROW(setThreadCount(-3), ConfigError);
    EXPECT_THROW(setThreadCount(kMaxThreads + 1), ConfigError);
    EXPECT_EQ(threadCount(), 2); // a rejected value changes nothing
    setThreadCount(kMaxThreads);
    EXPECT_EQ(threadCount(), kMaxThreads);
}

TEST(ThreadCount, ParseIsExact)
{
    EXPECT_EQ(parseThreadCount("1", "--threads"), 1);
    EXPECT_EQ(parseThreadCount("256", "--threads"), 256);
    for (const char *bad : {"", "0", "-3", "+4", " 4", "4 ", "4.0", "abc",
                            "257", "300", "99999999999999999999"}) {
        SCOPED_TRACE(bad);
        try {
            parseThreadCount(bad, "PL_THREADS");
            ADD_FAILURE() << "accepted";
        } catch (const ConfigError &e) {
            // The message names the input and the cap.
            EXPECT_NE(std::string(e.what()).find("PL_THREADS"),
                      std::string::npos);
            EXPECT_NE(std::string(e.what()).find("256"),
                      std::string::npos);
        }
    }
}

TEST(ParallelDeterminism, Conv2dForwardAndBackward)
{
    // Big enough that both GEMMs reach the pool: 32 x 144 x 1024
    // multiply-adds each.
    ASSERT_GE(32 * 144 * 1024, 4 * kMinChunkWork);
    Rng rng(21);
    const Tensor in = Tensor::randn({16, 32, 32}, rng);
    const Tensor k = Tensor::randn({32, 16, 3, 3}, rng);
    const Tensor b = Tensor::randn({32}, rng);
    const Tensor delta = Tensor::randn({32, 32, 32}, rng);

    Tensor fwd_serial, bwd_serial;
    {
        ThreadCountGuard guard(1);
        fwd_serial = ops::conv2d(in, k, b, 1, 1);
        bwd_serial = ops::conv2dBackwardKernel(in, delta, 3, 3, 1);
    }
    for (int64_t threads : {2, 4, 7}) {
        ThreadCountGuard guard(threads);
        EXPECT_TRUE(
            bitIdentical(fwd_serial, ops::conv2d(in, k, b, 1, 1)))
            << "conv2d diverged at " << threads << " threads";
        EXPECT_TRUE(bitIdentical(
            bwd_serial, ops::conv2dBackwardKernel(in, delta, 3, 3, 1)))
            << "conv2dBackwardKernel diverged at " << threads
            << " threads";
    }
}

TEST(ParallelDeterminism, MatVecFamily)
{
    // 4096 x 1024 multiply-adds per op: enough to reach the pool.
    ASSERT_GE(4096 * 1024, 4 * kMinChunkWork);
    Rng rng(22);
    const Tensor w = Tensor::randn({4096, 1024}, rng);
    const Tensor x = Tensor::randn({1024}, rng);
    const Tensor y = Tensor::randn({4096}, rng);

    Tensor mv_serial, mvt_serial, outer_serial;
    {
        ThreadCountGuard guard(1);
        mv_serial = ops::matVec(w, x);
        mvt_serial = ops::matVecT(w, y);
        outer_serial = ops::outer(x, y);
    }
    for (int64_t threads : {2, 4}) {
        ThreadCountGuard guard(threads);
        EXPECT_TRUE(bitIdentical(mv_serial, ops::matVec(w, x)));
        EXPECT_TRUE(bitIdentical(mvt_serial, ops::matVecT(w, y)));
        EXPECT_TRUE(bitIdentical(outer_serial, ops::outer(x, y)));
    }
}

TEST(ParallelDeterminism, CrossbarMatVec)
{
    // Sixteen windows over a 512x512 array, 4M cell multiply-adds:
    // enough to reach the pool.
    reram::DeviceParams params;
    params.array_rows = 512;
    params.array_cols = 512;
    constexpr int64_t kWindows = 16;
    ASSERT_GE(params.array_rows * params.array_cols * kWindows,
              4 * kMinChunkWork);
    auto program = [&](reram::CrossbarArray &array, Rng &rng) {
        for (int64_t r = 0; r < params.array_rows; ++r)
            for (int64_t c = 0; c < params.array_cols; ++c)
                array.programCell(
                    r, c, static_cast<int64_t>(rng.uniformInt(16)));
    };
    std::vector<int64_t> codes(
        static_cast<size_t>(kWindows * params.array_rows));
    Rng code_rng(23);
    for (auto &code : codes)
        code = static_cast<int64_t>(code_rng.uniformInt(65536));

    auto run = [&](int64_t threads) {
        ThreadCountGuard guard(threads);
        Rng rng(24);
        reram::CrossbarArray array(params);
        program(array, rng);
        std::vector<int64_t> out(
            static_cast<size_t>(kWindows * params.array_cols));
        array.matVecCodesBatch(
            reram::SpikeBlock(codes.data(), kWindows, params.array_rows,
                              params.data_bits),
            out.data());
        return out;
    };
    const std::vector<int64_t> serial_out = run(1);
    for (int64_t threads : {2, 4}) {
        EXPECT_EQ(serial_out, run(threads))
            << "crossbar matVec diverged at " << threads << " threads";
    }
}

TEST(ParallelDeterminism, CrossbarSaturationMatchesSerial)
{
    // Saturation depends on the per-column integrate order; a narrow
    // counter must clip identically at every thread count.
    reram::DeviceParams params;
    params.counter_bits = 8;
    std::vector<int64_t> codes(
        static_cast<size_t>(params.array_rows), 65535);

    auto run = [&](int64_t threads) {
        ThreadCountGuard guard(threads);
        reram::CrossbarArray array(params);
        for (int64_t r = 0; r < params.array_rows; ++r)
            for (int64_t c = 0; c < params.array_cols; ++c)
                array.programCell(r, c, 15);
        auto out = reram::matVecCodesOnce(array, codes, params.data_bits);
        // Every bit line's count clips at the counter capacity.
        const int64_t max_count = (int64_t{1} << params.counter_bits) - 1;
        for (const int64_t count : out)
            EXPECT_EQ(count, max_count);
        return out;
    };
    const auto serial = run(1);
    EXPECT_EQ(serial, run(4));
}

nn::Network
makeCnn(uint64_t seed)
{
    Rng rng(seed);
    nn::Network net("det-cnn", {1, 8, 8});
    net.add(std::make_unique<nn::ConvLayer>(1, 4, 3, 1, 1, rng));
    net.add(std::make_unique<nn::ReluLayer>());
    net.add(std::make_unique<nn::MaxPoolLayer>(2));
    net.add(std::make_unique<nn::ConvLayer>(4, 6, 3, 1, 1, rng));
    net.add(std::make_unique<nn::ReluLayer>());
    net.add(std::make_unique<nn::MaxPoolLayer>(2));
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(24, 4, rng));
    return net;
}

TEST(ParallelDeterminism, FullPipelinedTrainBatch)
{
    std::vector<Tensor> inputs;
    std::vector<int64_t> labels;
    Rng rng(25);
    for (int64_t i = 0; i < 12; ++i) {
        Tensor x({1, 8, 8});
        for (int64_t j = 0; j < x.numel(); ++j)
            x.at(j) = static_cast<float>(rng.uniform());
        inputs.push_back(std::move(x));
        labels.push_back(static_cast<int64_t>(rng.uniformInt(4)));
    }

    auto train = [&](int64_t threads, double *loss) {
        ThreadCountGuard guard(threads);
        nn::Network net = makeCnn(26);
        core::PipelinedTrainer trainer(net);
        // Two batches so the second starts from parallel-updated
        // weights — divergence would compound and be caught.
        trainer.trainBatch(inputs, labels, 0.2f);
        *loss = trainer.trainBatch(inputs, labels, 0.2f).mean_loss;
        return net;
    };

    double serial_loss = 0.0, parallel_loss = 0.0;
    nn::Network serial = train(1, &serial_loss);
    nn::Network parallel = train(4, &parallel_loss);

    EXPECT_EQ(serial_loss, parallel_loss);
    ASSERT_EQ(serial.numLayers(), parallel.numLayers());
    for (size_t l = 0; l < serial.numLayers(); ++l) {
        const auto ps = serial.layer(l).parameters();
        const auto pp = parallel.layer(l).parameters();
        ASSERT_EQ(ps.size(), pp.size());
        for (size_t k = 0; k < ps.size(); ++k)
            EXPECT_TRUE(bitIdentical(*ps[k], *pp[k]))
                << "layer " << l << " param " << k
                << " diverged between 1 and 4 threads";
    }
}

/**
 * Reference CircularBuffer live-count bookkeeping: the pre-rewrite
 * O(capacity) scan, replayed alongside the incremental version.
 */
struct ReferenceBuffer
{
    struct Slot
    {
        int64_t tag = -1;
        bool live = false;
    };
    std::vector<Slot> slots;
    int64_t write_idx = 0;
    int64_t violations = 0;
    int64_t peak_live = 0;

    explicit ReferenceBuffer(int64_t entries)
        : slots(static_cast<size_t>(entries))
    {
    }

    int64_t liveScan() const
    {
        int64_t live = 0;
        for (const auto &slot : slots)
            live += slot.live ? 1 : 0;
        return live;
    }

    void write(int64_t tag)
    {
        Slot &slot = slots[static_cast<size_t>(write_idx)];
        if (slot.live)
            ++violations;
        slot.tag = tag;
        slot.live = true;
        write_idx =
            (write_idx + 1) % static_cast<int64_t>(slots.size());
        peak_live = std::max(peak_live, liveScan());
    }

    void read(int64_t tag, bool final_read)
    {
        for (auto &slot : slots) {
            if (slot.live && slot.tag == tag) {
                if (final_read)
                    slot.live = false;
                return;
            }
        }
        ++violations;
    }
};

TEST(CircularBufferRegression, IncrementalCountMatchesScan)
{
    // Random mixed workload, including overwrites of live data and
    // reads of evicted tags, on several capacities.
    for (int64_t capacity : {1, 2, 7, 32}) {
        arch::CircularBuffer buf("regress", capacity);
        ReferenceBuffer ref(capacity);
        Rng rng(static_cast<uint64_t>(27 + capacity));
        int64_t next_tag = 0;
        for (int step = 0; step < 2000; ++step) {
            const double roll = rng.uniform();
            if (roll < 0.5) {
                buf.write(next_tag);
                ref.write(next_tag);
                ++next_tag;
            } else {
                // Read a mix of recent (likely live) and ancient
                // (likely evicted) tags, half of them final reads.
                const int64_t back =
                    static_cast<int64_t>(rng.uniformInt(
                        static_cast<uint64_t>(2 * capacity + 1)));
                const int64_t tag = next_tag - 1 - back;
                if (tag < 0)
                    continue;
                const bool final_read = rng.uniform() < 0.5;
                buf.read(tag, final_read);
                ref.read(tag, final_read);
            }
            ASSERT_EQ(buf.liveCount(), ref.liveScan())
                << "capacity " << capacity << " step " << step;
            ASSERT_EQ(buf.peakLive(), ref.peak_live);
            ASSERT_EQ(buf.violations(), ref.violations);
        }
    }
}

TEST(CircularBufferRegression, OverwriteKeepsLiveCountStable)
{
    arch::CircularBuffer buf("overwrite", 2);
    buf.write(0);
    buf.write(1);
    EXPECT_EQ(buf.liveCount(), 2);
    buf.write(2); // overwrites live tag 0: one violation, still 2 live
    EXPECT_EQ(buf.liveCount(), 2);
    EXPECT_EQ(buf.violations(), 1);
    EXPECT_EQ(buf.peakLive(), 2);
    buf.read(1, true);
    buf.read(2, true);
    EXPECT_EQ(buf.liveCount(), 0);
}

} // namespace
} // namespace pipelayer
