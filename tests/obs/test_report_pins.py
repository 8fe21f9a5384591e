"""What the causality recorder reports, pinned number for number.

``test_observer_transparency`` proves that observing a run does not
change the run; nothing else proves that a change to *how* a run is
observed does not change what the observer reports.  These pins do: for
four scenarios × four seeds at the ``paths`` and ``trace`` levels, the
counters, the critical-path aggregates (floats by ``repr``, so bit for
bit) and a hash of the Chrome trace JSON.  Both levels must give the
same pins — the level only decides what the report keeps, not what is
recorded.

Regenerate (only for a deliberate change of what the recorder reports)
with ``PYTHONPATH=src python tests/obs/test_report_pins.py``.
"""

import hashlib
import io
import textwrap

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.runner import ExperimentRun

BASE = dict(platform="grid5000", n_clusters=3, apps_per_cluster=3,
            n_cs=5, rho=4.5)
SCENARIOS = {
    "naimi-naimi": dict(system="composition", intra="naimi", inter="naimi"),
    "suzuki-flat": dict(system="flat", intra="suzuki"),
    # Ten CS, not five: the controller decides every 500 ms with a
    # hysteresis of two, so only a longer run switches to Martin — and
    # registers the new epoch's peers mid-run.
    "adaptive": dict(system="adaptive", n_cs=10),
    "martin-suzuki-fifo": dict(system="composition", intra="martin",
                               inter="suzuki", jitter=0.2, fifo=True),
}
SEEDS = (1, 2, 3, 4)


def observe(scenario, seed, level):
    """One observed run, reduced to what the pins compare."""
    config = ExperimentConfig(**{**BASE, **SCENARIOS[scenario]}, seed=seed,
                              obs=level)
    with ExperimentRun(config) as run:
        report = run.execute().obs_report
        trace = io.StringIO()
        run.obs.write_chrome_trace(trace)
    return {
        "counters": report.counters,
        "n_paths": report.n_paths,
        "exact": report.exact,
        "category_ms": {c: repr(v) for c, v in report.category_ms.items()},
        "lan_ms": repr(report.lan_ms),
        "wan_ms": repr(report.wan_ms),
        "trace_sha": hashlib.sha256(trace.getvalue().encode()).hexdigest()[:16],
    }


@pytest.mark.parametrize("level", ["paths", "trace"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_report_matches_pin(scenario, seed, level):
    assert observe(scenario, seed, level) == PINS[(scenario, seed)]


PINS = {
    ('adaptive', 1): {
        'counters': {'sends': 434, 'delivers': 434, 'intra_sends': 337, 'inter_sends': 97,
            'cs_requests': 172, 'cs_entries': 172, 'cs_exits': 171, 'send.request': 262,
            'send.token': 172},
        'n_paths': 90,
        'exact': True,
        'category_ms': {'intra_latency': '8.666000000004582', 'inter_latency':
            '495.4670000000001', 'coordinator_queue': '1127.89135627863', 'holding':
            '2673.444873504872', 'local': '0.0'},
        'lan_ms': '2338.1180456326547',
        'wan_ms': '1967.3511841508519',
        'trace_sha': '34ccf81c95096793',
    },
    ('adaptive', 2): {
        'counters': {'sends': 439, 'delivers': 439, 'intra_sends': 341, 'inter_sends': 98,
            'cs_requests': 172, 'cs_entries': 172, 'cs_exits': 171, 'send.request': 267,
            'send.token': 172},
        'n_paths': 90,
        'exact': True,
        'category_ms': {'intra_latency': '9.010000000005537', 'inter_latency':
            '492.24599999999975', 'coordinator_queue': '1062.763011371153', 'holding':
            '2739.4080453054453', 'local': '0.0'},
        'lan_ms': '2308.0917116756013',
        'wan_ms': '1995.335345001002',
        'trace_sha': 'affaf0daa4b1d1d6',
    },
    ('adaptive', 3): {
        'counters': {'sends': 431, 'delivers': 431, 'intra_sends': 335, 'inter_sends': 96,
            'cs_requests': 168, 'cs_entries': 168, 'cs_exits': 167, 'send.request': 265,
            'send.token': 166},
        'n_paths': 90,
        'exact': True,
        'category_ms': {'intra_latency': '9.123000000005428', 'inter_latency':
            '533.3169999999997', 'coordinator_queue': '775.019940993019', 'holding':
            '2822.020332025971', 'local': '0.0'},
        'lan_ms': '2140.4620546231326',
        'wan_ms': '1999.0182183958627',
        'trace_sha': '9699fdeafa178b97',
    },
    ('adaptive', 4): {
        'counters': {'sends': 436, 'delivers': 436, 'intra_sends': 333, 'inter_sends': 103,
            'cs_requests': 176, 'cs_entries': 176, 'cs_exits': 175, 'send.request': 261,
            'send.token': 175},
        'n_paths': 90,
        'exact': True,
        'category_ms': {'intra_latency': '8.27400000000522', 'inter_latency':
            '477.4450000000003', 'coordinator_queue': '882.2556659730105', 'holding':
            '2259.1567226490083', 'local': '0.0'},
        'lan_ms': '1909.9052906257346',
        'wan_ms': '1717.2260979962898',
        'trace_sha': 'd476963b50fa56dd',
    },
    ('martin-suzuki-fifo', 1): {
        'counters': {'sends': 233, 'delivers': 233, 'intra_sends': 173, 'inter_sends': 60,
            'cs_requests': 84, 'cs_entries': 84, 'cs_exits': 84, 'send.request': 131,
            'send.token': 102},
        'n_paths': 45,
        'exact': True,
        'category_ms': {'intra_latency': '5.275410915287267', 'inter_latency':
            '284.66677230635736', 'coordinator_queue': '532.8691615118311', 'holding':
            '1466.169895898016', 'local': '0.0'},
        'lan_ms': '1297.60239096238',
        'wan_ms': '991.3788496691118',
        'trace_sha': '7a833000053a5c08',
    },
    ('martin-suzuki-fifo', 2): {
        'counters': {'sends': 202, 'delivers': 202, 'intra_sends': 151, 'inter_sends': 51,
            'cs_requests': 80, 'cs_entries': 80, 'cs_exits': 80, 'send.request': 116,
            'send.token': 86},
        'n_paths': 45,
        'exact': True,
        'category_ms': {'intra_latency': '4.411451317719654', 'inter_latency':
            '229.62374283425393', 'coordinator_queue': '404.00281238903926', 'holding':
            '1594.6322331466429', 'local': '0.0'},
        'lan_ms': '1191.6042666165474',
        'wan_ms': '1041.0659730711084',
        'trace_sha': '930c5b5f4ae49d65',
    },
    ('martin-suzuki-fifo', 3): {
        'counters': {'sends': 228, 'delivers': 228, 'intra_sends': 168, 'inter_sends': 60,
            'cs_requests': 84, 'cs_entries': 84, 'cs_exits': 84, 'send.request': 130,
            'send.token': 98},
        'n_paths': 45,
        'exact': True,
        'category_ms': {'intra_latency': '4.382566503200717', 'inter_latency':
            '215.03935961099026', 'coordinator_queue': '309.1334999137756', 'holding':
            '1030.1606314644084', 'local': '0.0'},
        'lan_ms': '802.6604338603366',
        'wan_ms': '756.0556236320385',
        'trace_sha': '5ad6067b53df1fff',
    },
    ('martin-suzuki-fifo', 4): {
        'counters': {'sends': 276, 'delivers': 276, 'intra_sends': 207, 'inter_sends': 69,
            'cs_requests': 92, 'cs_entries': 92, 'cs_exits': 92, 'send.request': 154,
            'send.token': 122},
        'n_paths': 45,
        'exact': True,
        'category_ms': {'intra_latency': '5.692105131816247', 'inter_latency':
            '284.5750396565925', 'coordinator_queue': '281.80991055149633', 'holding':
            '1196.447705158655', 'local': '0.0'},
        'lan_ms': '868.8844741116316',
        'wan_ms': '899.6402863869286',
        'trace_sha': '6f563bf3a8230b51',
    },
    ('naimi-naimi', 1): {
        'counters': {'sends': 211, 'delivers': 211, 'intra_sends': 168, 'inter_sends': 43,
            'cs_requests': 82, 'cs_entries': 82, 'cs_exits': 82, 'send.request': 129,
            'send.token': 82},
        'n_paths': 45,
        'exact': True,
        'category_ms': {'intra_latency': '4.375999999999786', 'inter_latency':
            '230.11150000000004', 'coordinator_queue': '661.7390917933667', 'holding':
            '1347.19165503026', 'local': '0.0'},
        'lan_ms': '1284.220384018604',
        'wan_ms': '959.1978628050226',
        'trace_sha': 'e2ff732eb44eef52',
    },
    ('naimi-naimi', 2): {
        'counters': {'sends': 207, 'delivers': 207, 'intra_sends': 164, 'inter_sends': 43,
            'cs_requests': 82, 'cs_entries': 82, 'cs_exits': 82, 'send.request': 126,
            'send.token': 81},
        'n_paths': 45,
        'exact': True,
        'category_ms': {'intra_latency': '4.148999999999805', 'inter_latency':
            '210.45749999999992', 'coordinator_queue': '738.8441447179507', 'holding':
            '1270.1321708425585', 'local': '0.0'},
        'lan_ms': '1264.0850453836333',
        'wan_ms': '959.4977701768755',
        'trace_sha': '95e798ca56c8b65b',
    },
    ('naimi-naimi', 3): {
        'counters': {'sends': 220, 'delivers': 220, 'intra_sends': 169, 'inter_sends': 51,
            'cs_requests': 88, 'cs_entries': 88, 'cs_exits': 88, 'send.request': 132,
            'send.token': 88},
        'n_paths': 45,
        'exact': True,
        'category_ms': {'intra_latency': '4.3859999999996635', 'inter_latency':
            '268.64999999999975', 'coordinator_queue': '256.701768784192', 'holding':
            '1123.7450760231918', 'local': '0.0'},
        'lan_ms': '755.7592632502686',
        'wan_ms': '897.7235815571145',
        'trace_sha': 'acbee0749b03480a',
    },
    ('naimi-naimi', 4): {
        'counters': {'sends': 231, 'delivers': 231, 'intra_sends': 172, 'inter_sends': 59,
            'cs_requests': 96, 'cs_entries': 96, 'cs_exits': 96, 'send.request': 136,
            'send.token': 95},
        'n_paths': 45,
        'exact': True,
        'category_ms': {'intra_latency': '4.198000000000365', 'inter_latency':
            '284.72799999999995', 'coordinator_queue': '274.4982642420699', 'holding':
            '1093.9536637406754', 'local': '0.0'},
        'lan_ms': '831.605468374646',
        'wan_ms': '825.7724596080998',
        'trace_sha': '00b603ff670b6cfe',
    },
    ('suzuki-flat', 1): {
        'counters': {'sends': 396, 'delivers': 396, 'intra_sends': 99, 'inter_sends': 297,
            'cs_requests': 45, 'cs_entries': 45, 'cs_exits': 45, 'send.request': 352,
            'send.token': 44},
        'n_paths': 45,
        'exact': True,
        'category_ms': {'intra_latency': '1.5510000000002258', 'inter_latency':
            '761.9719999999999', 'coordinator_queue': '0.0', 'holding':
            '1894.4326987342683', 'local': '0.0'},
        'lan_ms': '538.846392255268',
        'wan_ms': '2119.109306479',
        'trace_sha': '7e4722958c98cf5b',
    },
    ('suzuki-flat', 2): {
        'counters': {'sends': 405, 'delivers': 405, 'intra_sends': 105, 'inter_sends': 300,
            'cs_requests': 45, 'cs_entries': 45, 'cs_exits': 45, 'send.request': 360,
            'send.token': 45},
        'n_paths': 45,
        'exact': True,
        'category_ms': {'intra_latency': '1.4049999999997527', 'inter_latency': '684.636',
            'coordinator_queue': '0.0', 'holding': '1924.0547251797764', 'local': '0.0'},
        'lan_ms': '581.2473323415837',
        'wan_ms': '2028.8483928381922',
        'trace_sha': '5819a8ab7bc89a42',
    },
    ('suzuki-flat', 3): {
        'counters': {'sends': 405, 'delivers': 405, 'intra_sends': 107, 'inter_sends': 298,
            'cs_requests': 45, 'cs_entries': 45, 'cs_exits': 45, 'send.request': 360,
            'send.token': 45},
        'n_paths': 45,
        'exact': True,
        'category_ms': {'intra_latency': '1.4869999999999806', 'inter_latency':
            '551.7159999999998', 'coordinator_queue': '0.0', 'holding':
            '1352.7948448073844', 'local': '0.0'},
        'lan_ms': '555.9936742067367',
        'wan_ms': '1350.0041706006473',
        'trace_sha': 'e928969bab884a03',
    },
    ('suzuki-flat', 4): {
        'counters': {'sends': 405, 'delivers': 405, 'intra_sends': 98, 'inter_sends': 307,
            'cs_requests': 45, 'cs_entries': 45, 'cs_exits': 45, 'send.request': 360,
            'send.token': 45},
        'n_paths': 45,
        'exact': True,
        'category_ms': {'intra_latency': '0.8120000000000402', 'inter_latency':
            '726.9799999999999', 'coordinator_queue': '0.0', 'holding':
            '1545.2860544514906', 'local': '0.0'},
        'lan_ms': '481.57933584329396',
        'wan_ms': '1791.4987186081967',
        'trace_sha': '94dd7f9b2422afcb',
    },
}


if __name__ == "__main__":
    print("PINS = {")
    for scenario in sorted(SCENARIOS):
        for seed in SEEDS:
            print(f"    {(scenario, seed)!r}: {{")
            for field, value in observe(scenario, seed, "paths").items():
                print(textwrap.fill(
                    f"{field!r}: {value!r},", width=92,
                    initial_indent=" " * 8, subsequent_indent=" " * 12,
                    break_on_hyphens=False,
                ))
            print("    },")
    print("}")
