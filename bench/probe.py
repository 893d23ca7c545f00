"""Set-up cost of one workload, measured in this fresh interpreter.

Usage: python3 probe.py CONFIG_PATH  (with mkvlab's ``src`` on PYTHONPATH)

Prints one JSON object: import_s (import mkvlab.cli), scenario_s (parse the
config, build the scenario and the run config) and init_s (sample the
initial law and create the particle cloud(s)). Nothing else is imported
before the timer starts, so numpy, scipy and mkvlab all count.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

import mkvlab.cli as cli  # noqa: E402

t1 = time.perf_counter()

from pathlib import Path  # noqa: E402

rc = cli.parse_config(Path(sys.argv[1]).read_text())
scenario = rc.scenario()
cfg = rc.sim_config()
t2 = time.perf_counter()

from mkvlab.simulate import NoiseStream, ParticleCloud  # noqa: E402

model = scenario.model
laws = [rc.initial_law(scenario)]
if rc.experiment == "stability":
    laws.append(cli._parse_init(rc.init_b) or scenario.default_init)
for law in laws:
    x0 = law.sample(cfg.n_particles, model.dim, NoiseStream(cfg.seed, cfg.stream))
    ParticleCloud.create(x0, model, cfg.tracked_levels())
t3 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({
    "module": cli.__file__,
    "import_s": t1 - t0,
    "scenario_s": t2 - t1,
    "init_s": t3 - t2,
}))
