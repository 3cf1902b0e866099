#include "runner/job_pool.hh"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hh"

namespace eqx {

using Clock = std::chrono::steady_clock;

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::TimedOut:
        return "timed-out";
      case JobStatus::Failed:
        return "failed";
    }
    return "?";
}

namespace {

/** Set on each worker thread for the life of its batch. */
thread_local int tBatchWorkers = 0;

} // namespace

int
JobPool::currentWorkers()
{
    return tBatchWorkers;
}

int
resolveWorkerCount(int requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

/**
 * What the watchdog inspects: the deadline of the attempt currently
 * running on this worker, and the token it should trip. The worker
 * publishes a deadline before each attempt and clears it after.
 */
struct JobPool::WorkerSlot
{
    CancelToken token;
    /** Deadline as Clock ticks since epoch; 0 = no attempt running. */
    std::atomic<Clock::rep> deadline{0};
};

JobPool::JobPool(JobPoolConfig cfg) : cfg_(std::move(cfg))
{
    eqx_assert(cfg_.retries >= 0, "retries must be non-negative");
}

void
JobPool::workerLoop(int worker_id, std::size_t count, const JobFn &fn,
                    std::vector<JobReport> &reports,
                    std::vector<WorkerSlot> &slots)
{
    WorkerSlot &slot = slots[static_cast<std::size_t>(worker_id)];
    const bool watchdogged = cfg_.timeoutSec > 0;

    for (;;) {
        std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count)
            break;

        JobReport rep;
        if (cfg_.shortCircuit) {
            auto t0 = Clock::now();
            bool served = false;
            try {
                served = cfg_.shortCircuit(i);
            } catch (const std::exception &e) {
                eqx_warn("job ", i, " short-circuit hook threw: ",
                         e.what(), " — running the job instead");
            }
            if (served) {
                rep.status = JobStatus::Ok;
                rep.attempts = 0;
                rep.shortCircuited = true;
                rep.wallMs = std::chrono::duration<double, std::milli>(
                                 Clock::now() - t0)
                                 .count();
                reports[i] = rep;
                done_.fetch_add(1, std::memory_order_relaxed);
                if (cfg_.onJobDone) {
                    std::lock_guard<std::mutex> lock(doneMu_);
                    cfg_.onJobDone(i, rep);
                }
                continue;
            }
        }
        int max_attempts = 1 + cfg_.retries;
        for (int attempt = 0; attempt < max_attempts; ++attempt) {
            slot.token.reset();
            if (watchdogged) {
                auto deadline =
                    Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(cfg_.timeoutSec));
                slot.deadline.store(deadline.time_since_epoch().count(),
                                    std::memory_order_release);
            }

            JobContext ctx;
            ctx.index = i;
            ctx.attempt = attempt;
            ctx.cancel = &slot.token;

            auto t0 = Clock::now();
            bool completed = false;
            rep.error.clear();
            try {
                completed = fn(ctx);
            } catch (const std::exception &e) {
                rep.error = e.what();
            } catch (...) {
                rep.error = "unknown exception";
            }
            auto t1 = Clock::now();
            slot.deadline.store(0, std::memory_order_release);

            rep.attempts = attempt + 1;
            rep.wallMs =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();
            if (completed) {
                rep.status = JobStatus::Ok;
                break;
            }
            rep.status = slot.token.cancelled() ? JobStatus::TimedOut
                                                : JobStatus::Failed;
            if (attempt + 1 < max_attempts)
                eqx_warn("job ", i, " ", jobStatusName(rep.status),
                         rep.error.empty() ? "" : ": ", rep.error,
                         " — retrying (attempt ", attempt + 2, "/",
                         max_attempts, ")");
        }

        reports[i] = rep;
        done_.fetch_add(1, std::memory_order_relaxed);
        if (!rep.ok())
            failed_.fetch_add(1, std::memory_order_relaxed);
        if (cfg_.onJobDone) {
            std::lock_guard<std::mutex> lock(doneMu_);
            cfg_.onJobDone(i, rep);
        }
    }
}

std::vector<JobReport>
JobPool::run(std::size_t count, const JobFn &fn)
{
    eqx_assert(fn, "JobPool needs a job function");
    std::vector<JobReport> reports(count);
    next_.store(0, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    failed_.store(0, std::memory_order_relaxed);
    total_.store(count, std::memory_order_relaxed);
    if (count == 0)
        return reports;

    int workers = resolveWorkerCount(cfg_.workers);
    if (static_cast<std::size_t>(workers) > count)
        workers = static_cast<int>(count);

    std::vector<WorkerSlot> slots(static_cast<std::size_t>(workers));

    // Service threads (watchdog, ticker) park on this condvar so the
    // end of the batch wakes them immediately instead of after their
    // poll interval.
    std::mutex svc_mu;
    std::condition_variable svc_cv;
    bool batch_done = false;

    auto svc_sleep = [&](std::chrono::milliseconds period) {
        std::unique_lock<std::mutex> lock(svc_mu);
        return !svc_cv.wait_for(lock, period,
                                [&] { return batch_done; });
    };

    std::vector<std::jthread> service;
    if (cfg_.timeoutSec > 0) {
        service.emplace_back([&] {
            while (svc_sleep(std::chrono::milliseconds(20))) {
                auto now = Clock::now().time_since_epoch().count();
                for (auto &slot : slots) {
                    auto dl =
                        slot.deadline.load(std::memory_order_acquire);
                    if (dl != 0 && now > dl)
                        slot.token.cancel();
                }
            }
        });
    }
    if (cfg_.progressEveryMs > 0) {
        service.emplace_back([&] {
            do {
                std::fprintf(stderr, "\r%s: %zu/%zu done, %zu failed   ",
                             cfg_.progressLabel.c_str(), completed(),
                             count, failed());
                std::fflush(stderr);
            } while (svc_sleep(
                std::chrono::milliseconds(cfg_.progressEveryMs)));
            std::fprintf(stderr, "\r%s: %zu/%zu done, %zu failed   \n",
                         cfg_.progressLabel.c_str(), completed(), count,
                         failed());
        });
    }

    {
        std::vector<std::jthread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back([&, w] {
                tBatchWorkers = workers;
                workerLoop(w, count, fn, reports, slots);
            });
    } // jthread dtors join every worker

    {
        std::lock_guard<std::mutex> lock(svc_mu);
        batch_done = true;
    }
    svc_cv.notify_all();
    service.clear(); // join watchdog/ticker

    return reports;
}

} // namespace eqx
