/**
 * @file
 * The untraced run: every end-to-end metric, from host wall-clock
 * timing around public API calls and from the simulated results.
 *
 * The three stages advance one unit of work at a time (a training
 * chunk, one backend's modeled run, one serving run), always the stage
 * furthest behind its time share. A slow spell on a shared host then
 * lands on every stage alike rather than on whichever stage happened
 * to be running, and each host-time metric is a median over units
 * spread across the whole run.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include <sys/resource.h>

#include "common.hh"
#include "core/serving.hh"

namespace perfbench
{
namespace
{

/** Batches per runFunctionalTraining call (one training unit). */
constexpr std::size_t kChunkBatches = 2;
/** Chunks of one training epoch; chunk k trains on the batches of
 *  stream k % kEpochChunks, so memory use does not grow with the
 *  number of chunks a run fits in. */
constexpr unsigned kEpochChunks = 4;
/** Set-up repeats; setup_s is their median. */
constexpr unsigned kSetupReps = 3;

/** serve_max_qps: p99 limit, probe size, first probe, resolution. */
constexpr double kServeP99LimitUs = 1000;
constexpr std::size_t kSearchRequests = 100000;
constexpr double kSearchStartQps = 200e3;
constexpr double kSearchFloorQps = 1e3;
constexpr double kSearchResolution = 0.0025;

/** Paper Fig 18 end-to-end HW/SW over mmap speedups. */
constexpr double kPaperFig18Avg = 3.5, kPaperFig18Max = 5.0;

/** Independent seed of stream @p k under master seed @p seed. */
std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t k)
{
    return seed + k * 0x9E3779B97F4A7C15ULL;
}

/**
 * Host speed of repeated work. Each unit (a training chunk, one
 * backend's run, the i-th serving run of a pass) is timed on every
 * repeat; the rate is the work of one repeat over the sum of the
 * units' median host times.
 */
class HostRate
{
  public:
    void
    add(const std::string &unit, double work, double seconds)
    {
        Unit &u = units_[unit];
        u.work = work;
        u.seconds.push_back(seconds);
    }

    double
    rate() const
    {
        double work = 0, seconds = 0;
        for (const auto &[name, u] : units_) {
            work += u.work;
            seconds += median(u.seconds);
        }
        return work / seconds;
    }

  private:
    struct Unit
    {
        double work = 0;
        std::vector<double> seconds;
    };
    std::map<std::string, Unit> units_;
};

/**
 * One stage of the untraced run. A pass is the stage's repeatable
 * sequence of units; the stage is done at a pass boundary once it has
 * used its time share and run at least two passes, so every run
 * checks that its simulated results repeat.
 */
class Stage
{
  public:
    explicit Stage(double share_s) : share_s_(share_s) {}
    virtual ~Stage() = default;
    Stage(const Stage &) = delete;
    Stage &operator=(const Stage &) = delete;

    void
    step()
    {
        auto t0 = Clock::now();
        at_boundary_ = runUnit();
        passes_ += at_boundary_ ? 1 : 0;
        spent_s_ += secondsSince(t0);
    }

    bool
    done() const
    {
        return at_boundary_ && passes_ >= 2 && spent_s_ >= share_s_;
    }

    double progress() const { return spent_s_ / share_s_; }

    /** Report the stage's metrics and checks. */
    virtual void finish(Report &report) = 0;

  protected:
    /** Run the next unit. @return true when it ended a pass */
    virtual bool runUnit() = 0;

    unsigned passes() const { return passes_; }

  private:
    double share_s_;
    double spent_s_ = 0;
    unsigned passes_ = 0;
    bool at_boundary_ = true;
};

/** Functional training: one model, epochs of kEpochChunks chunks. */
class TrainStage : public Stage
{
  public:
    TrainStage(const core::Workload &workload, std::uint64_t seed,
               double share_s, Report &report)
        : Stage(share_s), workload_(workload), seed_(seed),
          report_(report),
          model_(modelConfig(workload, seed))
    {}

    void
    finish(Report &report) override
    {
        report.metric("train_batches_per_s", host_.rate(), "batches/s");
        bool finite = std::all_of(losses_.begin(), losses_.end(),
                                  [](double l) { return std::isfinite(l); });
        report.check(finite, "train loss is finite in every chunk");
        report.check(losses_.back() < losses_.front(),
                     "train loss falls over the run (" +
                         std::to_string(losses_.front()) + " -> " +
                         std::to_string(losses_.back()) + ", " +
                         std::to_string(passes()) + " chunks)");
    }

  protected:
    bool
    runUnit() override
    {
        core::SystemConfig cfg;
        cfg.pipeline.seed = streamSeed(seed_, passes() % kEpochChunks);
        core::GnnSystem system(cfg, workload_);
        auto t0 = Clock::now();
        auto r = system.runFunctionalTraining(model_, kTrainWorkers,
                                              kChunkBatches);
        host_.add("chunk", static_cast<double>(r.batches),
                  secondsSince(t0));
        losses_.push_back(r.mean_loss);
        // The call reports only the chunk's mean loss, so a non-finite
        // mean fails every batch of the chunk.
        report_.count(r.batches, std::isfinite(r.mean_loss) ? 0 : r.batches);
        return true;
    }

  private:
    const core::Workload &workload_;
    std::uint64_t seed_;
    Report &report_;
    gnn::SageModel model_;
    HostRate host_;
    std::vector<double> losses_;
};

/** Modeled training: runPipeline on each backend, one per unit. */
class SimStage : public Stage
{
  public:
    SimStage(const core::Workload &workload, std::uint64_t seed,
             double share_s, Report &report)
        : Stage(share_s), workload_(workload), seed_(seed),
          report_(report)
    {}

    void
    finish(Report &report) override
    {
        report.metric("sim_host_batches_per_s", host_.rate(), "batches/s");
        for (const char *b : kBackends)
            report.metric(std::string("sim_batches_per_s.") + b,
                          first_[b].throughput(), "batches/s");
        report.check(repeat_ok_, "simulated training bit-identical across " +
                                     std::to_string(passes()) + " passes");
        std::printf("info isp-hwsw/ssd-mmap simulated speedup %.3fx (paper "
                    "Fig 18: %.1fx avg, %.1fx max; information only, the "
                    "model is not validated against hardware)\n",
                    first_["isp-hwsw"].throughput() /
                        first_["ssd-mmap"].throughput(),
                    kPaperFig18Avg, kPaperFig18Max);
    }

  protected:
    bool
    runUnit() override
    {
        const char *b = kBackends[next_];
        core::SystemConfig cfg = backendConfig(b, seed_);
        // A fresh system per run: producer reset() does not rewind every
        // device timeline of the host backends.
        core::GnnSystem system(cfg, workload_);
        auto t0 = Clock::now();
        pipeline::PipelineResult r = system.runPipeline();
        host_.add(b, static_cast<double>(r.batches), secondsSince(t0));

        std::uint64_t want = cfg.pipeline.num_batches;
        report_.count(want,
                      r.makespan ? want - std::min(want, r.batches) : want);
        if (passes() == 0)
            first_[b] = r;
        else
            repeat_ok_ = repeat_ok_ && samePipelineResult(first_[b], r);

        next_ = (next_ + 1) % std::size(kBackends);
        return next_ == 0;
    }

  private:
    const core::Workload &workload_;
    std::uint64_t seed_;
    Report &report_;
    std::size_t next_ = 0;
    HostRate host_;
    std::map<std::string, pipeline::PipelineResult> first_;
    bool repeat_ok_ = true;
};

/**
 * Search for the highest offered rate that meets the serving limit:
 * step by 1.5x from kSearchStartQps until the limit is bracketed, then
 * bisect to kSearchResolution. result() is 0 when even the floor rate
 * fails.
 */
class RateSearch
{
  public:
    double next() const { return q_; }
    bool done() const { return done_; }
    double result() const { return lo_; }

    void
    record(bool meets)
    {
        (meets ? lo_ : hi_) = q_;
        if (lo_ == 0) {
            q_ = hi_ / 1.5;
            done_ = q_ < kSearchFloorQps;
        } else if (hi_ == 0) {
            q_ = lo_ * 1.5;
        } else if (hi_ - lo_ <= kSearchResolution * lo_) {
            done_ = true;
        } else {
            q_ = 0.5 * (lo_ + hi_);
        }
    }

  private:
    double q_ = kSearchStartQps;
    double lo_ = 0, hi_ = 0;
    bool done_ = false;
};

/** Cached serving: fixed-rate runs, then the max-rate search. */
class ServeStage : public Stage
{
  public:
    ServeStage(const core::Workload &workload, std::uint64_t seed,
               double share_s, Report &report)
        : Stage(share_s), workload_(workload), seed_(seed),
          report_(report)
    {}

    void
    finish(Report &report) override
    {
        for (std::size_t i = 0; i < first_.size(); ++i) {
            std::string q = kServePoints[i].label;
            report.metric("serve_p50_us." + q, first_[i].p50_us(), "us");
            report.metric("serve_p99_us." + q, first_[i].p99_us(), "us");
        }
        report.metric("serve_max_qps", first_max_qps_, "req/s");
        report.metric("serve_host_requests_per_s", host_.rate(), "req/s");
        report.check(repeat_ok_, "serving results bit-identical across " +
                                     std::to_string(passes()) + " passes");
        report.check(first_max_qps_ > 0,
                     "serving meets the p99 limit at some offered rate");
    }

  protected:
    bool
    runUnit() override
    {
        // The runs of a pass repeat exactly, so the i-th run of every
        // pass is one HostRate unit.
        std::size_t fixed = points_.size();
        bool is_fixed = fixed < std::size(kServePoints);
        double qps = is_fixed ? kServePoints[fixed].qps : search_.next();

        core::GnnSystem system(backendConfig("direct-io-cache", seed_),
                               workload_);
        auto t0 = Clock::now();
        core::ServingResult r = core::runServingLoad(
            system, servingConfig(seed_, qps,
                                  is_fixed ? kServeRequests
                                           : kSearchRequests));
        host_.add("run" + std::to_string(run_index_++),
                  static_cast<double>(r.requests), secondsSince(t0));
        report_.countServing(r);

        if (is_fixed) {
            points_.push_back(r);
            return false;
        }
        search_.record(r.p99_us() <= kServeP99LimitUs &&
                       r.shedFraction() == 0 &&
                       r.achieved_qps >= 0.99 * qps);
        if (!search_.done())
            return false;
        endPass();
        return true;
    }

  private:
    void
    endPass()
    {
        if (passes() == 0) {
            first_ = points_;
            first_max_qps_ = search_.result();
        } else {
            repeat_ok_ = repeat_ok_ && search_.result() == first_max_qps_;
            for (std::size_t i = 0; i < points_.size(); ++i)
                repeat_ok_ =
                    repeat_ok_ && sameServingResult(first_[i], points_[i]);
        }
        points_.clear();
        search_ = RateSearch();
        run_index_ = 0;
    }

    const core::Workload &workload_;
    std::uint64_t seed_;
    Report &report_;
    HostRate host_;
    std::vector<core::ServingResult> points_, first_;
    RateSearch search_;
    unsigned run_index_ = 0;
    double first_max_qps_ = 0;
    bool repeat_ok_ = true;
};

/**
 * Dataset build, construction of every system the stages use, and an
 * untimed warm-up training batch; repeated, setup_s is the median.
 */
std::unique_ptr<core::Workload>
runSetup(std::uint64_t seed, Report &report)
{
    std::unique_ptr<core::Workload> workload;
    std::vector<double> times;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        workload.reset();
        auto t0 = Clock::now();
        workload = std::make_unique<core::Workload>(makeWorkload());
        core::SystemConfig train_cfg;
        train_cfg.pipeline.seed = seed;
        core::GnnSystem train_system(train_cfg, *workload);
        std::vector<std::unique_ptr<core::GnnSystem>> systems;
        for (const char *b : kBackends)
            systems.push_back(std::make_unique<core::GnnSystem>(
                backendConfig(b, seed), *workload));
        gnn::SageModel model(modelConfig(*workload, seed));
        train_system.runFunctionalTraining(model, kTrainWorkers, 1);
        times.push_back(secondsSince(t0));
    }
    report.metric("setup_s", median(times), "s");
    return workload;
}

} // namespace

void
runUntraced(const std::string &workload_name, std::uint64_t seed,
            double seconds, Report &report)
{
    std::unique_ptr<core::Workload> workload = runSetup(seed, report);

    auto share = [&](const char *stage) {
        return workload_name == stage ? seconds : seconds / 2;
    };
    TrainStage train(*workload, seed, share("train-functional"), report);
    SimStage sim(*workload, seed, share("sim-train"), report);
    ServeStage serve(*workload, seed, share("serve-cached"), report);
    Stage *stages[] = {&train, &sim, &serve};
    for (;;) {
        Stage *next = nullptr;
        for (Stage *s : stages)
            if (!s->done() && (!next || s->progress() < next->progress()))
                next = s;
        if (!next)
            break;
        next->step();
    }
    for (Stage *s : stages)
        s->finish(report);

    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    report.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024,
                  "MiB");
}

} // namespace perfbench
