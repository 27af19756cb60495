/**
 * @file
 * Multi-core server model with DVFS and fault injection.
 *
 * A Server executes work expressed in core cycles. Tasks are scheduled
 * FCFS onto free cores; when all cores are busy, tasks queue - this is
 * where CPU saturation and colocation interference come from. Execution
 * time is cycles / (effective_ipc * frequency), so RAPL-style frequency
 * capping (Fig 12) and "slow server" injection (Fig 22c) fall out of
 * the same mechanism.
 */

#ifndef UQSIM_CPU_SERVER_HH
#define UQSIM_CPU_SERVER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/inline_function.hh"
#include "core/sim_context.hh"
#include "core/stats.hh"
#include "core/types.hh"
#include "cpu/core_model.hh"

namespace uqsim::cpu {

/**
 * Completion callback; receives the task's time on the core. Sized so
 * the task-end event (server, duration, callback) fits the event
 * queue's inline callback.
 */
using TaskDone = InlineFunction<void(Tick busy_time), 40>;

/**
 * A server: N identical cores fed from one FCFS queue.
 */
class Server
{
  public:
    /**
     * @param ctx    scheduling context (names the owning shard)
     * @param id     unique server id within the cluster
     * @param model  core type and count
     */
    Server(SimContext ctx, unsigned id, CoreModel model);

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Unique id within the cluster. */
    unsigned id() const { return id_; }

    /** Core type description. */
    const CoreModel &model() const { return model_; }

    /** Number of cores. */
    unsigned numCores() const { return model_.coresPerServer; }

    /**
     * Submit @p cycles of work at effective IPC @p ipc. @p done fires
     * when the work completes (possibly after queueing).
     */
    void execute(Cycles cycles, double ipc, TaskDone done);

    /** Current operating frequency in MHz. */
    double frequencyMhz() const { return freqMhz_; }

    /**
     * RAPL-style frequency cap. Takes effect for tasks that *start*
     * after the call (in-flight tasks finish at their old speed).
     */
    void setFrequencyMhz(double mhz);

    /** Restore nominal frequency. */
    void resetFrequency() { setFrequencyMhz(model_.nominalFreqMhz); }

    /**
     * Inject a uniform execution-time multiplier (>1 slows the server
     * down); models the "aggressive power management" fault of Fig 22c.
     */
    void setSlowFactor(double factor);

    /** Current slow factor (1.0 = healthy). */
    double slowFactor() const { return slowFactor_; }

    /** Cores currently executing a task. */
    unsigned busyCores() const { return busyCores_; }

    /** Tasks waiting for a core. */
    std::size_t queueLength() const { return pending_.size(); }

    /** Time-weighted CPU utilization in [0,1] since last statReset. */
    double utilizationAvg() const;

    /** Total core-busy time accumulated. */
    Tick totalBusyTime() const { return totalBusyTime_; }

    /** Total tasks completed. */
    std::uint64_t tasksCompleted() const { return tasksCompleted_; }

    /** Restart utilization integration at the current sim time. */
    void statReset();

  private:
    struct Task
    {
        Cycles cycles;
        double ipc;
        TaskDone done;
    };

    /** Execution time of a task at current settings. */
    Tick taskDuration(const Task &t) const;

    void startTask(Task &&task);
    void onTaskDone(Tick busy_time, TaskDone &&done);

    SimContext ctx_;
    unsigned id_;
    CoreModel model_;
    double freqMhz_;
    double slowFactor_ = 1.0;

    unsigned busyCores_ = 0;
    std::deque<Task> pending_;

    TimeWeightedGauge utilization_;
    Tick totalBusyTime_ = 0;
    std::uint64_t tasksCompleted_ = 0;
};

/**
 * A cluster: the set of servers an application deploys onto, plus the
 * fault-injection helpers the tail-at-scale study needs.
 */
class Cluster
{
  public:
    explicit Cluster(SimContext ctx) : ctx_(ctx) {}

    /** Add one server of the given core type; returns it. */
    Server &addServer(const CoreModel &model);

    /** Add @p n servers of the given core type. */
    void addServers(unsigned n, const CoreModel &model);

    /** All servers. */
    const std::vector<std::unique_ptr<Server>> &servers() const
    {
        return servers_;
    }

    /** Server by id. */
    Server &server(unsigned id);
    std::size_t size() const { return servers_.size(); }

    /** Round-robin placement cursor (cheap default placement). */
    Server &nextServerRoundRobin();

    /**
     * Mark the first @p count servers as slow with the given
     * execution-time multiplier (deterministic; callers shuffle ids
     * themselves if needed).
     */
    void injectSlowServers(unsigned count, double factor);

    /** Clear all slow markings. */
    void clearSlowServers();

    /** Apply a frequency cap to every server (RAPL sweep, Fig 12). */
    void setAllFrequenciesMhz(double mhz);

    /** Average utilization across servers. */
    double averageUtilization() const;

    /** Reset every server's utilization integration. */
    void statResetAll();

  private:
    SimContext ctx_;
    std::vector<std::unique_ptr<Server>> servers_;
    std::size_t rrCursor_ = 0;
};

} // namespace uqsim::cpu

#endif // UQSIM_CPU_SERVER_HH
