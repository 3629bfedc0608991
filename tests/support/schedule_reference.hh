/**
 * @file
 * The Fig. 6/7 op stream spelled image by image: each image's ops in
 * turn (ascending image within a batch, batches in sequence, an
 * update after each training batch), then one stable sort by cycle.
 * This is how arch::PipelineScheduler emitted its schedule before it
 * walked the in-flight images cycle by cycle, kept verbatim as the
 * oracle test_pipeline compares run()'s op stream with.
 *
 * Part of the pl_test_support library (tests/support): only the
 * tests and the micro benches link it, no program runs it.
 */

#ifndef PIPELAYER_TESTS_SUPPORT_SCHEDULE_REFERENCE_HH_
#define PIPELAYER_TESTS_SUPPORT_SCHEDULE_REFERENCE_HH_

#include <cstdint>
#include <vector>

#include "arch/pipeline.hh"

namespace pipelayer {
namespace arch {

/**
 * Every op of the schedule of an L = @p depth pipeline under
 * @p config, sorted by cycle; ops of one cycle keep the image-by-image
 * emission order.  @pre @p config is valid and @p depth >= 1.
 */
std::vector<PipelineScheduler::Op>
referenceSchedule(int64_t depth, const ScheduleConfig &config);

} // namespace arch
} // namespace pipelayer

#endif // PIPELAYER_TESTS_SUPPORT_SCHEDULE_REFERENCE_HH_
