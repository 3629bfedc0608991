#include "support/schedule_reference.hh"

#include <algorithm>

namespace pipelayer {
namespace arch {

namespace {

using Op = PipelineScheduler::Op;

void
scheduleImage(int64_t depth, bool training, int64_t image, int64_t t0,
              std::vector<Op> &ops)
{
    for (int64_t s = 0; s < depth; ++s)
        ops.push_back({Op::Kind::Forward, image, s, t0 + s + 1});

    if (!training)
        return;

    ops.push_back({Op::Kind::ErrorSeed, image, depth - 1, t0 + depth + 1});
    for (int64_t s = depth - 1; s >= 0; --s) {
        const int64_t cycle = t0 + 2 * depth + 1 - s;
        if (s >= 1)
            ops.push_back({Op::Kind::ErrorBack, image, s, cycle});
        ops.push_back({Op::Kind::Derivative, image, s, cycle});
    }
}

} // namespace

std::vector<PipelineScheduler::Op>
referenceSchedule(int64_t depth, const ScheduleConfig &config)
{
    const int64_t n = config.num_images;
    const int64_t b = config.batch_size;

    std::vector<Op> ops;
    if (config.training) {
        int64_t base = 0;
        int64_t image = 0;
        while (image < n) {
            const int64_t batch = std::min<int64_t>(b, n - image);
            for (int64_t i = 0; i < batch; ++i) {
                const int64_t t0 = config.pipelined
                    ? base + i
                    : base + i * (2 * depth + 1);
                // Image entry: d_0 is staged at t0, one cycle before
                // the image's first compute cycle.
                ops.push_back({Op::Kind::InputWrite, image + i, -1, t0});
                scheduleImage(depth, true, image + i, t0, ops);
            }
            // Weight update one cycle after the last image drains.
            const int64_t drain = config.pipelined
                ? base + (batch - 1) + 2 * depth + 1
                : base + batch * (2 * depth + 1);
            const int64_t update = drain + 1;
            ops.push_back({Op::Kind::Update, -1, -1, update});
            base = update; // next batch enters after the update
            image += batch;
        }
    } else {
        for (int64_t i = 0; i < n; ++i) {
            const int64_t t0 = config.pipelined
                ? (config.arrival_cycles.empty()
                       ? i
                       : config.arrival_cycles[static_cast<size_t>(i)])
                : i * depth;
            ops.push_back({Op::Kind::InputWrite, i, -1, t0});
            scheduleImage(depth, false, i, t0, ops);
        }
    }
    // The stable sort keeps emission order within a cycle.
    std::stable_sort(ops.begin(), ops.end(),
                     [](const Op &a, const Op &b) {
                         return a.cycle < b.cycle;
                     });
    return ops;
}

} // namespace arch
} // namespace pipelayer
