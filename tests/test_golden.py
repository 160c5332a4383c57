"""Golden outputs: the SHA-256 of every CLI output the north star pins.

A characterization test (Feathers, *Working Effectively with Legacy Code*,
2004): the hashes in ``golden_hashes.json`` were taken from the code as it
stood, and any change to the bytes of a verify report, a curvature report,
a trace or the plot fails here.  A change that moves a hash on purpose
rewrites the file (``python tests/test_golden.py``) and names each moved
output in CHANGES.md with the reason.

The bytes depend on the floating-point library, so the file records the
numpy version and BLAS build that produced it; on a mismatch the failure
names both the recorded and the running ones.

Every run writes into an empty directory under fixed relative names, since
configs (and with them output paths) are echoed into the trace metadata.
"""

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from bundleflow import cli

HASH_FILE = Path(__file__).with_name("golden_hashes.json")

# (output file, command, config); each config is written to <output>.json
RUNS = [
    ("verify.json", "verify", {"command": "verify"}),
    *[(f"curvature_{name}.json", "curvature",
       {"command": "curvature", "geometry": geometry, "params": params,
        "outputs": {"report": f"curvature_{name}.json"}})
      for name, geometry, params in (("heisenberg_1_1", "heisenberg", {"n": 1, "c": 1.0}),
                                     ("heisenberg_2_0.9", "heisenberg", {"n": 2, "c": 0.9}),
                                     ("sol3_1_1", "sol3", {"a": 1.0, "c": 1.0}))],
    *[(f"ode_{name}.csv", "flow-ode",
       {"command": "flow-ode", "geometry": geometry, "params": params,
        "outputs": {"trace": f"ode_{name}.csv"}})
      for name, geometry, params in (("berger_1_2", "berger", {"lambda1": 1.0, "lambda2": 2.0}),
                                     ("sol3_1_1", "sol3", {"a": 1.0, "c": 1.0}),
                                     ("heisenberg_2_1", "heisenberg", {"n": 2, "c": 1.0}))],
    ("be_16.csv", "flow-be",
     {"command": "flow-be", "params": {"N": 5, "amplitude": 0.1, "k": [0, 1]},
      "numerics": {"resolution": 16, "t_end": 0.05},
      "outputs": {"trace": "be_16.csv"}}),
    ("bundle_n1.csv", "flow-bundle",
     {"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
      "numerics": {"t_end": 0.05}, "outputs": {"trace": "bundle_n1.csv"}}),
    ("bundle_n2.csv", "flow-bundle",
     {"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 2, "c": 1.0},
      "numerics": {"t_end": 0.02, "record_every": 1}, "outputs": {"trace": "bundle_n2.csv"}}),
    ("portrait.svg", "plot",
     {"command": "plot",
      "inputs": ["ode_berger_1_2.csv", "ode_sol3_1_1.csv", "ode_heisenberg_2_1.csv"],
      "outputs": {"plot": "portrait.svg"}}),
]


def library_build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def produce(workdir: Path) -> dict:
    """Run every pinned command in ``workdir``; the hex digest of each output."""
    os.chdir(workdir)
    digests = {}
    for output, command, cfg in RUNS:
        config = f"{output}.json"
        Path(config).write_text(json.dumps(cfg), encoding="utf-8")
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = cli.main([command, "--config", config])
        assert code == 0, f"{command} ({output}) exited with {code}"
        if command == "verify":
            digests["verify.stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        digests[output] = hashlib.sha256(Path(output).read_bytes()).hexdigest()
    return digests


def test_outputs_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(HASH_FILE.read_text(encoding="utf-8"))
    digests = produce(tmp_path)
    moved = sorted(name for name in set(golden["sha256"]) | set(digests)
                   if digests.get(name) != golden["sha256"].get(name))
    here = library_build()
    recorded = {key: golden[key] for key in here}
    simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    assert not moved, (f"output bytes moved for {moved}; hashes recorded with {recorded}, "
                       f"this run uses {here} on a CPU with {simd}")


if __name__ == "__main__":
    # Rewrite the hash file from the current code (a deliberate hash move).
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            digests = produce(Path(tmp))
        finally:
            os.chdir(cwd)
    HASH_FILE.write_text(json.dumps({**library_build(), "sha256": digests},
                                    indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} hashes to {HASH_FILE}")
