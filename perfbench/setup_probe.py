"""Set-up cost in a fresh interpreter: import, config parse, model and grid build.

Usage: python setup_probe.py CONFIG

Run with ``src`` on PYTHONPATH. Prints one JSON object of seconds, timed
from this script's first statement: ``import_s`` (``import splitfv.cli``),
``config_s`` (parse and resolve the config) and ``total_s`` (ready to
step). Nothing after the last timestamp is timed.
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402

import splitfv.cli as cli  # noqa: E402

_t_import = time.perf_counter()


def _ready(path: str) -> float:
    """Parse the config and build what the first step needs; return the
    time at which the config was resolved."""
    from splitfv import verify
    from splitfv.mesh import CellField, build_grid

    cfg = cli.load_config(path)
    if cfg.get("mode") == "converge":
        problem = getattr(verify, f"{cfg['problem']}_problem")()
        t_config = time.perf_counter()
        grid = build_grid(problem.x_min, problem.x_max, int(cfg["base_cells"]))
        verify.project_initial(problem.initial, grid)
        problem.fluxdesc()
        return t_config
    setup = cli.build_setup(cfg)
    t_config = time.perf_counter()
    grid = build_grid(0.0, 1.0, setup.n_cells)
    CellField(grid, [setup.initial_density] * setup.n_cells)
    return t_config


if __name__ == "__main__":
    _t_config = _ready(sys.argv[1])
    _t_ready = time.perf_counter()
    import json

    print(json.dumps({
        "import_s": _t_import - _t0,
        "config_s": _t_config - _t_import,
        "total_s": _t_ready - _t0,
    }))
