"""One fresh process of the benchmark: a round, a traced run, or a pin.

``run.py`` starts this file as a subprocess and reads one JSON object
from the last line of its standard output.  A round is the untraced
unit: import ``repro``, build the inputs from the seed, one untimed
warm-up pass, then *n* timed passes each bracketed by the calibration
probe.  Everything that touches the library lives on this side of the
process boundary, so interpreter start, import and warm-up are part of
what ``setup_s`` measures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import probe, to_reference  # noqa: E402

#: Probe spread inside a round above which the round's reference-seconds
#: are not to be trusted (README: "when to distrust them").
NOISY_PROBE_SPREAD = 0.15


def _import_library() -> None:
    """Put the checkout's ``src`` on the path (the benchmark is run from a
    plain checkout, nothing is installed)."""
    src = HERE.parents[1] / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"benchmark needs the library source at {src}")
    sys.path.insert(0, str(src))


def _pin_to_one_cpu() -> Optional[int]:
    """Keep a single-threaded workload on one CPU for the whole round: on
    the 2-core host this was defined on, letting the scheduler migrate it
    doubled the spread between passes.  Sweeps use the pool and stay free."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def run_round(args: argparse.Namespace) -> dict:
    first_probe = probe()
    _import_library()
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    session = workloads.open_session(args.workload, args.seed, args.smoke, workdir)
    cpu = None if session.is_sweep else _pin_to_one_cpu()
    pinned = None if args.smoke else workloads.load_expected(args.workload, args.seed)
    reference = pinned["fingerprints"] if pinned else None
    try:
        session.warm_up()
        readings = [probe()]
        # Subprocess start to first timed pass, less the two probe
        # readings taken on the way (they are the instrument, not set-up).
        setup_raw = time.time() - args.t0 - first_probe - readings[0]
        passes = []
        attempted = failed = 0
        problems: list = []
        for _ in range(args.passes):
            cpu0 = time.process_time()
            started = time.perf_counter()
            try:
                calls = session.run_pass()
            except Exception:  # a failed pass is a result, not a crash
                calls = None
                problems.append(traceback.format_exc(limit=4))
            raw = time.perf_counter() - started
            cpu_s = time.process_time() - cpu0
            readings.append(probe())
            session.after_pass()
            passes.append({
                "raw_s": raw,
                "cpu_s": cpu_s,
                "probe_before": readings[-2],
                "probe_after": readings[-1],
                "ref_s": to_reference(raw, readings[-2], readings[-1]),
            })
            expected_ops = session.calls_per_pass * len(session.configs)
            attempted += expected_ops
            if calls is None:
                failed += expected_ops
                continue
            for results in calls:
                found = workloads.check_call(session.configs, results, reference)
                failed += len(found)
                problems.extend(found)
                if reference is None and not found:
                    reference = [workloads.fingerprint(r) for r in results]
    finally:
        session.close()
    spread = (max(readings) - min(readings)) / (sum(readings) / len(readings))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "pinned": pinned is not None,
        "cs_per_pass": session.calls_per_pass
        * sum(c.n_apps * c.n_cs for c in session.configs),
        "setup_raw_s": setup_raw,
        "setup_ref_s": to_reference(setup_raw, first_probe, readings[0]),
        "first_probe_s": first_probe,
        "probe_spread": spread,
        "noisy": spread > NOISY_PROBE_SPREAD,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": _peak_rss_mb(),
        "loadavg": os.getloadavg()[0],
        "pinned_cpu": cpu,
    }


def run_trace(args: argparse.Namespace) -> dict:
    _import_library()
    import layers

    return layers.traced_run(
        args.workload, args.seed, args.smoke, Path(args.workdir), args.seconds
    )


def run_pin(args: argparse.Namespace) -> dict:
    """One pass, no timing: the values ``expected.json`` pins."""
    _import_library()
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    session = workloads.open_session(args.workload, args.seed, False, workdir)
    try:
        results = session.run_pass()[0]
        session.after_pass()
    finally:
        session.close()
    found = workloads.check_call(session.configs, results, None)
    if found:
        raise SystemExit(f"refusing to pin a failing run: {found[:3]}")
    return {
        "cs_total": sum(r.cs_count for r in results),
        "messages": sum(r.total_messages for r in results),
        "inter_messages": sum(r.inter_cluster_messages for r in results),
        "fingerprints": [workloads.fingerprint(r) for r in results],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("round", "trace", "pin"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    payload = {"round": run_round, "trace": run_trace, "pin": run_pin}[args.mode](args)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
