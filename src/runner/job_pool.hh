/**
 * @file
 * Thread-pooled execution of independent simulation jobs.
 *
 * The pool runs `count` jobs over N worker threads pulling indices
 * from a shared atomic ticket (a degenerate shared-queue scheduler:
 * jobs are identified by index, so "the queue" is just the next
 * unclaimed index). Results are deterministic regardless of worker
 * count because each job writes only into its own slot and derives
 * all randomness from job-local state — the pool itself introduces no
 * shared mutable state a job can observe.
 *
 * Robustness: an optional wall-clock watchdog cancels jobs that
 * exceed `timeoutSec` via a per-worker CancelToken (polled
 * cooperatively by the job), non-completing jobs are retried up to
 * `retries` times, and failures are reported per job instead of
 * aborting the batch.
 *
 * Observability: atomic completed/failed counters readable from any
 * thread, an optional stderr progress ticker, and a serialized
 * per-job completion callback.
 */

#ifndef EQX_RUNNER_JOB_POOL_HH
#define EQX_RUNNER_JOB_POOL_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.hh"

namespace eqx {

/** Terminal state of one job after all attempts. */
enum class JobStatus : std::uint8_t
{
    Ok = 0,   ///< job function returned true
    TimedOut, ///< last attempt was cancelled by the watchdog
    Failed,   ///< job reported non-completion or threw
};

const char *jobStatusName(JobStatus s);

/** Handed to the job function on every attempt. */
struct JobContext
{
    std::size_t index = 0;         ///< which job (0..count-1)
    int attempt = 0;               ///< 0 first try, 1 first retry, ...
    const CancelToken *cancel = nullptr; ///< poll and wind down when set
};

/** Per-job outcome record. */
struct JobReport
{
    JobStatus status = JobStatus::Ok;
    int attempts = 0;    ///< attempts actually made (0 if short-circuited)
    double wallMs = 0;   ///< wall-clock of the final attempt (or lookup)
    std::string error;   ///< exception text, when status == Failed
    /** Satisfied by the shortCircuit hook without running the job. */
    bool shortCircuited = false;

    bool ok() const { return status == JobStatus::Ok; }
};

struct JobPoolConfig
{
    /** Worker threads; 0 resolves to the hardware concurrency. */
    int workers = 0;
    /** Per-attempt wall-clock timeout in seconds; 0 disables the
     *  watchdog (required for bit-for-bit deterministic batches). */
    double timeoutSec = 0;
    /** Extra attempts after a non-completing first try. */
    int retries = 1;
    /** Print a progress ticker to stderr every this many ms (0 = off). */
    int progressEveryMs = 0;
    /** Label prefixing the ticker line. */
    std::string progressLabel = "jobs";
    /** Called (serialized, from worker threads) after each job ends. */
    std::function<void(std::size_t index, const JobReport &)> onJobDone;
    /**
     * Result-cache hook, consulted before a job's first attempt:
     * return true to satisfy the job without running it (the hook is
     * expected to deposit the result wherever the job function would
     * have). Short-circuited jobs count as completed, report
     * attempts == 0, and still fire onJobDone. Must be safe to call
     * concurrently for distinct indices.
     */
    std::function<bool(std::size_t index)> shortCircuit;
};

/** Clamp a requested worker count to something sane. */
int resolveWorkerCount(int requested);

/**
 * The pool itself. `run` is blocking and may be called repeatedly;
 * workers live only for the duration of one batch.
 */
class JobPool
{
  public:
    /**
     * A job: do the work for `ctx.index`, polling `ctx.cancel`.
     * Return true on completion; false requests a retry (and marks
     * the job Failed/TimedOut once attempts are exhausted). Must be
     * safe to call concurrently for distinct indices.
     */
    using JobFn = std::function<bool(const JobContext &)>;

    explicit JobPool(JobPoolConfig cfg = {});

    /** Execute jobs 0..count-1; returns one report per job, in order. */
    std::vector<JobReport> run(std::size_t count, const JobFn &fn);

    // Atomic progress counters, readable from any thread mid-batch.
    std::size_t completed() const
    {
        return done_.load(std::memory_order_relaxed);
    }
    std::size_t failed() const
    {
        return failed_.load(std::memory_order_relaxed);
    }
    std::size_t total() const
    {
        return total_.load(std::memory_order_relaxed);
    }

    const JobPoolConfig &config() const { return cfg_; }

    /**
     * Worker threads of the batch the calling thread works for, 0 on
     * a thread that is no pool worker. System ticks its networks on
     * one thread when cells already run side by side (DESIGN.md §8).
     */
    static int currentWorkers();

  private:
    struct WorkerSlot;

    void workerLoop(int worker_id, std::size_t count, const JobFn &fn,
                    std::vector<JobReport> &reports,
                    std::vector<WorkerSlot> &slots);

    JobPoolConfig cfg_;
    std::mutex doneMu_; ///< serializes the onJobDone callback
    std::atomic<std::size_t> next_{0};
    std::atomic<std::size_t> done_{0};
    std::atomic<std::size_t> failed_{0};
    std::atomic<std::size_t> total_{0};
};

} // namespace eqx

#endif // EQX_RUNNER_JOB_POOL_HH
