#!/usr/bin/env python3
"""Bounded-memory soak: the peak RSS of a short and a long run.

Runs uqsim_run twice on one keyed, replicated, faulted scenario with
retries and timeouts, for 20 and for 160 simulated seconds, and exits 1
if the long run's peak resident memory exceeds the short run's by more
than 15%. The short run must be long enough to fill the trace ring
(about 10 s at this load), so what is left to differ is state that
grows with simulated time: cancelled timeouts waiting in the event
queue for their tick, request state that outlives its request,
unbounded logs.

    python3 tools/rss_soak.py build/tools/uqsim_run
"""

import argparse
import os
import subprocess
import sys

# The legs' simulated seconds, and the peak-RSS growth allowed from the
# short leg to the long one. A 4-vCPU Xeon VM measured 23.5 and 24.2 MB
# (+3.3%) with 64-byte span records (34.2 and 36.6 MB, +7%, with the
# 96-byte spans in a vector before them).
SHORT_S = 20
LONG_S = 160
MAX_GROWTH = 0.15

SCENARIO = [
    "--app", "social-network", "--qps", "1000",
    "--cache-keys", "20000", "--replica-factor", "3",
    "--replica-quorum", "2", "--replica-read", "ryw",
    "--rpc-timeout", "30ms", "--retries", "2",
    "--fault", "crash@t=2s,dur=0.5s,service=posts-memcached,role=leader",
]


def peak_rss_mb(binary, duration):
    """Run one soak leg; return its own peak RSS in MB."""
    proc = subprocess.Popen([binary, *SCENARIO, "--duration", str(duration)],
                            stdout=subprocess.DEVNULL)
    # wait4 reports this child's usage alone, unlike RUSAGE_CHILDREN,
    # which keeps the maximum over every child waited for so far.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"rss_soak: {binary} --duration {duration} exited "
                 f"{proc.returncode}")
    return usage.ru_maxrss / 1024.0  # Linux reports KB


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary", help="path to uqsim_run")
    args = ap.parse_args()

    short_mb = peak_rss_mb(args.binary, SHORT_S)
    long_mb = peak_rss_mb(args.binary, LONG_S)
    growth = long_mb / short_mb - 1.0
    print(f"peak RSS: {short_mb:.1f} MB at {SHORT_S} s, "
          f"{long_mb:.1f} MB at {LONG_S} s: "
          f"{growth * 100:+.1f}% (bound {MAX_GROWTH * 100:.0f}%)")
    if growth > MAX_GROWTH:
        print("rss_soak: memory grows with simulated time", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
