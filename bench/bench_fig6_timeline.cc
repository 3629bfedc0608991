/**
 * @file
 * Reproduces the paper's schedule diagrams as rendered timelines:
 *
 *  - Fig. 3: one input through a 3-layer network in training — the
 *    forward stages occupy cycles T1..T3, the output error is seeded
 *    at T4, and the error/derivative pairs walk back until ∂W1 at
 *    T7 (= 2L+1).
 *  - Fig. 6: the pipelined training schedule — one new input enters
 *    every cycle inside a batch, all unit rows fill up, and the
 *    update cycle separates batches.
 *  - The non-pipelined baseline of Fig. 7(a) for contrast.
 *
 * Rows: A1..AL forward stages, ErrL output-error unit, A_l2 reordered-
 * kernel error units, dW_l derivative units, Upd weight update.
 * Cells: the image (0-9, a-z) occupying the unit at that cycle.
 *
 * Besides the text charts, the Fig. 6 schedule is captured as a
 * Chrome trace-event file (--trace=PATH, default
 * BENCH_fig6_timeline.trace.json) loadable in Perfetto — one track
 * per pipeline unit row, one slice per occupied logical cycle — and
 * the measured/analytic cycle counts land in the JSON envelope.
 */

#include <iostream>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "bench/bench_util.hh"
#include "common/trace.hh"
#include "workloads/layer_spec.hh"

int
main(int argc, char **argv)
{
    using namespace pipelayer;

    return bench::Runner::main(
        "fig6_timeline", argc, argv, {"trace"},
        [](bench::Runner &r) {
        constexpr int64_t kDepth = 3;
        constexpr int64_t kBatch = 6;
        constexpr int64_t kImages = 12; // two batches: update visible

        workloads::NetworkSpec spec;
        spec.name = "fig3-chain";
        for (int64_t i = 0; i < kDepth; ++i) {
            spec.layers.push_back(
                workloads::LayerSpec::innerProduct(32, 32));
        }
        const reram::DeviceParams params;
        const auto g = arch::GranularityConfig::naive(spec);

        json::Value &res = r.result();
        res["depth"] = json::Value(kDepth);
        res["batch"] = json::Value(kBatch);
        res["images"] = json::Value(kImages);

        {
            std::cout << "Fig. 3: training one input on a 3-layer "
                         "network (2L+1 = 7 compute cycles + update)\n\n";
            const arch::NetworkMapping map(spec, g, params, true, 1);
            arch::ScheduleConfig config;
            config.pipelined = true;
            config.training = true;
            config.batch_size = 1;
            config.num_images = 1;
            arch::PipelineScheduler scheduler(map.depth(), config);
            const arch::ScheduleStats stats = scheduler.run();
            std::cout << scheduler.renderTimeline() << "\n";
            json::Value fig3 = stats.toJson();
            fig3["formula_cycles"] = json::Value(
                arch::PipelineScheduler::analyticTrainingCycles(
                    kDepth, 1, 1, true));
            res["fig3"] = std::move(fig3);
        }

        trace::TraceRecorder recorder("pipelayer-fig6");
        {
            std::cout << "Fig. 6: pipelined training, batch B = 6 — a "
                         "new input enters every cycle\n\n";
            const arch::NetworkMapping map(spec, g, params, true,
                                           kBatch);
            arch::ScheduleConfig config;
            config.pipelined = true;
            config.training = true;
            config.batch_size = kBatch;
            config.num_images = kImages;
            arch::PipelineScheduler scheduler(map.depth(), config);
            scheduler.setTrace(&recorder);
            const arch::ScheduleStats stats = scheduler.run();
            std::cout << scheduler.renderTimeline(30) << "\n";
            json::Value fig6 = stats.toJson();
            // Paper Fig. 7(b): (N/B)(2L+B+1) cycles total, i.e.
            // 2L+B+1 per batch.
            fig6["formula_cycles"] = json::Value(
                arch::PipelineScheduler::analyticTrainingCycles(
                    kDepth, kImages, kBatch, true));
            fig6["cycles_per_batch"] =
                json::Value(2 * kDepth + kBatch + 1);
            fig6["trace_events"] =
                json::Value(static_cast<int64_t>(recorder.eventCount()));
            fig6["trace_cycles"] = json::Value(recorder.lastCycle());
            res["fig6"] = std::move(fig6);
        }

        {
            std::cout << "Fig. 7(a) contrast: the same 12 inputs "
                         "without pipelining\n\n";
            const arch::NetworkMapping map(spec, g, params, true,
                                           kBatch);
            arch::ScheduleConfig config;
            config.pipelined = false;
            config.training = true;
            config.batch_size = kBatch;
            config.num_images = kImages;
            arch::PipelineScheduler scheduler(map.depth(), config);
            const arch::ScheduleStats stats = scheduler.run();
            std::cout << scheduler.renderTimeline(30) << "\n";
            json::Value fig7a = stats.toJson();
            fig7a["formula_cycles"] = json::Value(
                arch::PipelineScheduler::analyticTrainingCycles(
                    kDepth, kImages, kBatch, false));
            res["fig7a"] = std::move(fig7a);
        }

        const std::string trace_path = r.args().str(
            "trace", "BENCH_fig6_timeline.trace.json");
        recorder.writeFile(trace_path);
        std::cout << "wrote " << trace_path
                  << " (load in Perfetto / chrome://tracing)\n";
        res["trace_file"] = json::Value(trace_path);

        std::cout << "reading: forward stage A_l hosts image i at "
                     "cycle t0+l; ErrL seeds δ_L at t0+L+1; A_l2/dW_l "
                     "walk the error back; Upd applies the batch's "
                     "averaged derivatives\n";
        return 0;
        });
}
