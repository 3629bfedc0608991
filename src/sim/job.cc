#include "sim/job.hh"

#include "common/logging.hh"

namespace pipelayer {
namespace sim {

Job
Job::training(int64_t batch, int64_t images)
{
    Job job;
    job.phase = Phase::Training;
    job.batch_size = batch;
    job.num_images = images;
    job.validate();
    return job;
}

Job
Job::testing(int64_t images)
{
    Job job;
    job.phase = Phase::Testing;
    job.num_images = images;
    job.validate();
    return job;
}

arch::ScheduleConfig
Job::schedule() const
{
    arch::ScheduleConfig sched;
    sched.pipelined = pipelined;
    sched.training = phase == Phase::Training;
    sched.batch_size = batch_size;
    sched.num_images = num_images;
    sched.arrival_cycles = arrivals.cycles();
    return sched;
}

Job
Job::shard() const
{
    Job s = *this;
    s.batch_size = batch_size / num_chips;
    s.num_images = num_images / num_chips;
    s.num_chips = 1;
    return s;
}

void
Job::validate() const
{
    if (batch_size <= 0) {
        throw ConfigError("Job: batch_size must be positive, got " +
                          std::to_string(batch_size));
    }
    if (num_images <= 0) {
        throw ConfigError("Job: num_images must be positive, got " +
                          std::to_string(num_images));
    }
    if (phase == Phase::Training && num_images % batch_size != 0) {
        throw ConfigError(
            "Job: training needs batch_size (" +
            std::to_string(batch_size) + ") to divide num_images (" +
            std::to_string(num_images) +
            "): the schedule separates full batches with update cycles");
    }
    if (num_chips < 1) {
        throw ConfigError("Job: num_chips must be >= 1, got " +
                          std::to_string(num_chips));
    }
    if (batch_size % num_chips != 0) {
        throw ConfigError(
            "Job: num_chips (" + std::to_string(num_chips) +
            ") must divide batch_size (" + std::to_string(batch_size) +
            "): chips shard every batch evenly");
    }
    if (num_images % num_chips != 0) {
        throw ConfigError(
            "Job: num_chips (" + std::to_string(num_chips) +
            ") must divide num_images (" + std::to_string(num_images) +
            "): chips process equal volumes in lock-step");
    }
    interconnect.validate();
    arrivals.validate();
    if (!arrivals.empty()) {
        if (phase == Phase::Training || !pipelined) {
            throw ConfigError(
                "Job: an arrival trace is a pipelined-testing "
                "(serving) description; training and non-pipelined "
                "jobs pace images themselves");
        }
        if (arrivals.size() != num_images) {
            throw ConfigError(
                "Job: arrival trace has " +
                std::to_string(arrivals.size()) + " requests for " +
                std::to_string(num_images) + " images");
        }
        if (num_chips > 1) {
            throw ConfigError(
                "Job: an explicit arrival trace cannot be sharded "
                "across chips; run serving jobs on one chip");
        }
    }
}

json::Value
Job::toJson() const
{
    json::Value v = json::Value::object();
    v["job_version"] = json::Value(int64_t{1});
    v["network"] = json::Value(network);
    v["phase"] = json::Value(
        phase == Phase::Training ? "training" : "testing");
    v["pipelined"] = json::Value(pipelined);
    v["batch_size"] = json::Value(batch_size);
    v["num_images"] = json::Value(num_images);
    if (num_chips > 1) {
        v["num_chips"] = json::Value(num_chips);
        v["interconnect"] = interconnect.toJson();
    }
    if (!arrivals.empty())
        v["arrivals"] = arrivals.toJson();
    return v;
}

Job
Job::fromJson(const json::Value &v)
{
    Job job;
    if (const json::Value *network = v.find("network")) {
        if (!network->isString())
            throw ConfigError("Job: 'network' must be a string");
        job.network = network->asString();
    }
    const json::Value *phase = v.find("phase");
    if (!phase || !phase->isString())
        throw ConfigError("Job: JSON lacks a 'phase' string");
    if (phase->asString() == "training")
        job.phase = Phase::Training;
    else if (phase->asString() == "testing")
        job.phase = Phase::Testing;
    else {
        throw ConfigError("Job: unknown phase '" + phase->asString() +
                          "'");
    }
    if (const json::Value *pipelined = v.find("pipelined")) {
        if (!pipelined->isBool())
            throw ConfigError("Job: 'pipelined' must be a bool");
        job.pipelined = pipelined->asBool();
    }
    if (const json::Value *batch = v.find("batch_size")) {
        if (!batch->isNumber())
            throw ConfigError("Job: 'batch_size' must be a number");
        job.batch_size = batch->asInt("Job: 'batch_size'");
    }
    if (const json::Value *chips = v.find("num_chips")) {
        if (!chips->isNumber())
            throw ConfigError("Job: 'num_chips' must be a number");
        job.num_chips = chips->asInt("Job: 'num_chips'");
    }
    if (const json::Value *icn = v.find("interconnect"))
        job.interconnect = arch::InterconnectConfig::fromJson(*icn);
    if (const json::Value *arrivals = v.find("arrivals"))
        job.arrivals = ArrivalTrace::fromJson(*arrivals);
    if (const json::Value *images = v.find("num_images")) {
        if (!images->isNumber())
            throw ConfigError("Job: 'num_images' must be a number");
        job.num_images = images->asInt("Job: 'num_images'");
    } else if (!job.arrivals.empty()) {
        // A serving job's volume is implied by its arrival trace.
        job.num_images = job.arrivals.size();
    } else {
        throw ConfigError(
            "Job: JSON needs 'num_images' or an 'arrivals' trace");
    }
    job.validate();
    return job;
}

} // namespace sim
} // namespace pipelayer
