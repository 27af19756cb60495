/**
 * @file
 * CPU core microarchitecture classes (brawny vs wimpy vs edge).
 *
 * A CoreModel captures what the paper varies across platforms in
 * Sections 4 (Figs 12-13): issue width, in-order vs out-of-order
 * execution, nominal frequency and sensitivity to instruction-cache
 * misses. The per-service IPC on a given core is derived by
 * MicroarchModel from the service's static profile.
 */

#ifndef UQSIM_CPU_CORE_MODEL_HH
#define UQSIM_CPU_CORE_MODEL_HH

#include <string>

namespace uqsim::cpu {

/**
 * Static description of one CPU core type.
 */
struct CoreModel
{
    /** Human-readable platform name ("Xeon E5-2660v3", "ThunderX"). */
    std::string name;

    /** Pipeline issue width (ideal IPC ceiling). */
    double issueWidth = 4.0;

    /** True for in-order pipelines (no latency hiding). */
    bool inOrder = false;

    /**
     * Fraction of stall cycles the core can hide by reordering
     * (0 for in-order, ~0.45 for aggressive OoO).
     */
    double stallHiding = 0.45;

    /** Nominal core frequency in MHz. */
    double nominalFreqMhz = 2400.0;

    /** Minimum frequency reachable via DVFS/RAPL in MHz. */
    double minFreqMhz = 1000.0;

    /** Cores per server built from this model. */
    unsigned coresPerServer = 40;

    /** L1 instruction cache capacity in KiB. */
    double l1iCapacityKb = 32.0;

    // -- Presets matching the paper's evaluation platforms ------------

    /** 2-socket Intel Xeon (E5-2660 v3 class): 40 OoO cores @2.4GHz. */
    static CoreModel xeon();

    /** Xeon frequency-capped to 1.8GHz (Fig 13 middle curve). */
    static CoreModel xeonAt1800();

    /** Cavium ThunderX: 2x48 in-order cores @1.8GHz (Fig 13). */
    static CoreModel thunderx();

    /** Edge-device SoC on the drones (Swarm Edge): 4 small cores. */
    static CoreModel edgeArm();
};

} // namespace uqsim::cpu

#endif // UQSIM_CPU_CORE_MODEL_HH
