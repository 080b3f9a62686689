"""Distinct solves on distinct threads give the same reports as serial runs."""

import json
from concurrent.futures import ThreadPoolExecutor

from coincidia import bvp3, caputo, pendulum
from coincidia.numerics import MIDPOINTS, NODES, Grid, GridFunction
from coincidia.registry import bvp3_example, caputo_linear, pendulum_pa
from problems import pendulum_sqrt_linear

SOLVES = {
    "pendulum": lambda: pendulum.solve(pendulum_pa(), Grid(0.0, 1.0, 2000, NODES)),
    "pendulum-bisection": lambda: pendulum.solve(pendulum_sqrt_linear(3.0),
                                                 Grid(0.0, 1.0, 200, NODES)),
    "bvp3-auto": lambda: bvp3.solve(bvp3_example(), Grid(0.0, 1.0, 512, MIDPOINTS)),
    "bvp3-resolvent": lambda: bvp3.solve(bvp3_example(), Grid(0.0, 1.0, 256, MIDPOINTS),
                                         scheme="resolvent", tol=1e-6),
    "caputo": lambda: caputo.solve(caputo_linear(), Grid(0.0, 1.0, 512, NODES)),
}


def report_and_arrays(name: str) -> tuple[str, list[bytes]]:
    """The serialized report with the bytes of every per-point array, which
    ``to_dict`` leaves out."""
    report = SOLVES[name]()
    arrays = [report.solution, *(v for v in report.extras.values() if isinstance(v, GridFunction))]
    return json.dumps(report.to_dict()), [f.values.tobytes() for f in arrays]


def test_concurrent_solves_match_serial():
    serial = {name: report_and_arrays(name) for name in SOLVES}
    names = [*SOLVES, *SOLVES]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(report_and_arrays, names))
    for name, outputs in zip(names, concurrent):
        assert outputs == serial[name], name
