"""Record the reference final energy of every input variant of a workload.

    PYTHONPATH=src python3 perfbench/make_reference.py surfing_oram thermal_oram

Runs each variant once, applies every check except the energy comparison,
and stores the final total energy in ``reference.json``.  It refuses to
store anything if a variant fails a check: only seeds that pass ship.
Regenerate references only for a change that is meant to move the energies,
and say so in the change.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import N_VARIANTS, REFERENCE_FILE, WORKLOADS  # noqa: E402


def reference_energies(name: str, workdir: Path) -> dict:
    energies = {}
    for v in range(N_VARIANTS):
        wl = WORKLOADS[name](v, reference=None)
        wl.prepare(workdir)
        wl.clean()
        out = wl.outcome(wl.run())
        errors = [e for e in wl.check(out) if not e.startswith("no reference energy")]
        if errors:
            raise SystemExit(f"{name} variant {v} fails its checks: {errors}")
        energies[str(v)] = out.energies[-1]
        print(f"{name} variant {v}: {wl.describe} -> {out.energies[-1]!r} "
              f"({out.am_sweeps} sweeps, {out.newton_steps} Newton steps)", flush=True)
    return energies


def main(names: list) -> None:
    workdir = Path(__file__).resolve().parent.parent / ".perfbench_work" / f"ref-{os.getpid()}"
    try:
        new = {name: reference_energies(name, workdir) for name in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    refs.update(new)
    REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(WORKLOADS))
