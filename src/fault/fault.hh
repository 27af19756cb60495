/**
 * @file
 * Declarative fault schedules.
 *
 * A fault schedule is a list of timed fault windows the injector arms
 * against a running App: instance crashes, transient per-request error
 * rates, server slowdowns and network partitions. Schedules come from
 * the command line (`--fault crash@t=2s,dur=1s,service=backend`) or a
 * JSON file (`--faults faults.json`); both parse into the same
 * FaultSpec records, so a run is fully described by its flags + seed
 * and replays bit-identically.
 */

#ifndef UQSIM_FAULT_FAULT_HH
#define UQSIM_FAULT_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hh"

namespace uqsim::json {
struct Value;
}

namespace uqsim::fault {

/** What kind of failure a window injects. */
enum class FaultKind
{
    Crash,     ///< instance crash (+ optional restart after duration)
    ErrorRate, ///< per-request transient errors at a service
    Slowdown,  ///< execution-time multiplier on a server
    Partition, ///< drop messages between two server groups
};

/** @return a short printable kind name ("crash", "errors", ...). */
std::string faultKindName(FaultKind kind);

/**
 * Role-addressed crash target within a replica group. With a role set,
 * FaultSpec::instance names the *group* (ring shard) index and the
 * concrete victim instance is resolved when the window fires — so
 * "crash the leader of group 2 at t=3s" keeps meaning the leader even
 * after earlier failovers moved leadership.
 */
enum class CrashRole
{
    None,     ///< instance is a literal tier instance index
    Leader,   ///< the group's current leader at fire time
    Follower, ///< the group's first live non-leader member at fire time
};

/** @return a printable role name ("leader", "follower", "none"). */
std::string crashRoleName(CrashRole role);

/** Parse a role name; @return false (out untouched) on bad input. */
bool crashRoleByName(const std::string &name, CrashRole &out);

/** An inclusive range of server ids (partition group). */
struct ServerRange
{
    unsigned first = 0;
    unsigned last = 0;

    bool
    contains(unsigned id) const
    {
        return id >= first && id <= last;
    }
};

/**
 * One scheduled fault window. Field relevance depends on kind:
 *  - Crash:     service, instance; duration 0 = never restarts
 *  - ErrorRate: service, rate; duration required
 *  - Slowdown:  server, factor; duration required
 *  - Partition: groupA, groupB, loss; duration required
 */
struct FaultSpec
{
    FaultKind kind = FaultKind::Crash;

    /** Absolute start time of the window. */
    Tick start = 0;

    /** Window length; 0 for a permanent crash. */
    Tick duration = 0;

    /** Target tier (Crash, ErrorRate). */
    std::string service;

    /**
     * Target instance index within the tier (Crash). With a role set
     * this is the replica-*group* index instead and the victim is
     * resolved at fire time.
     */
    unsigned instance = 0;

    /** Role-addressed crash target (Crash on a replicated tier). */
    CrashRole role = CrashRole::None;

    /** Probability an arrival fails during the window (ErrorRate). */
    double rate = 1.0;

    /** Target server id (Slowdown). */
    unsigned server = 0;

    /** Execution-time multiplier while active (Slowdown). */
    double factor = 10.0;

    /** The two partitioned server groups (Partition). */
    ServerRange groupA;
    ServerRange groupB;

    /** Probability a crossing message is dropped (Partition). */
    double loss = 1.0;

    /** End of the window (start for permanent crashes). */
    Tick end() const { return start + duration; }

    /** One-line summary for reports/logs. */
    std::string describe() const;
};

/**
 * Parse a duration like "250ms", "2s", "1500us", "800ns" or a bare
 * number (milliseconds). @return false on malformed input; @p out is
 * untouched then.
 */
bool parseDuration(const std::string &text, Tick &out);

/**
 * The whole of @p text as a finite double: "nan", "inf" and trailing
 * junk are rejected. Every config surface (fault specs, scenario flags
 * and files) parses numbers here. @p out is untouched on failure.
 */
bool parseNumber(const std::string &text, double &out);

/** The whole of @p text as a 64-bit count: digits only, no sign. */
bool parseCount(const std::string &text, std::uint64_t &out);

/**
 * Parse one `--fault` flag value:
 *   kind@key=value,key=value,...
 * e.g. `crash@t=2s,dur=1s,service=backend,instance=0`
 *      `errors@t=1s,dur=2s,service=backend,rate=0.8`
 *      `slow@t=1s,dur=2s,server=0,factor=10`
 *      `partition@t=3s,dur=1s,a=0-1,b=2-4,loss=1`
 *
 * On failure @return false and set @p error to a human-readable
 * message naming the offending key.
 */
bool parseFaultFlag(const std::string &text, FaultSpec &out,
                    std::string &error);

/**
 * Parse a JSON fault schedule: an array of objects (or an object with
 * a "faults" array) whose keys mirror the flag syntax:
 *   [{"kind": "crash", "t": "2s", "dur": "1s",
 *     "service": "backend", "instance": 0}]
 * Strings and bare numbers are both accepted for times. On failure
 * @return false and set @p error.
 */
bool parseFaultFile(const std::string &json_text,
                    std::vector<FaultSpec> &out, std::string &error);

/**
 * Build a fault schedule from an already-parsed JSON array (the shape
 * of parseFaultFile). Shared with the scenario-config surface
 * (`uqsim_run --config`), which embeds a "faults" array.
 */
bool faultsFromJson(const json::Value &list, std::vector<FaultSpec> &out,
                    std::string &error);

} // namespace uqsim::fault

#endif // UQSIM_FAULT_FAULT_HH
