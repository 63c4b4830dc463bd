"""Record the benchmark's fixed data from the current checkout.

    python3 bench/record.py

Writes `data/ideals.json` (the integer-cleared QQ image-closure ideals that
the verify-warm good-primes jobs read) and `data/reference.json` (the
sha256 digest of every job's `--format json` stdout, for every prime of
every pool).  Jobs that use the Groebner cache run cold and then warm, and
the two outputs must agree.  Run it only on a commit whose outputs are
known to be right: the benchmark fails any job that differs from it.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction
from math import gcd

from run import WORK_DIR, Program, digest
from workloads import DATA_DIR, IDEAL_SOURCES, WORKLOADS, closure


def cleared_ideal(program: Program, tr, n: int) -> dict:
    """Generators of the QQ image closure, scaled to coprime integers."""
    geometry, poly, rings = (program.modules[m]
                             for m in ("geometry", "poly", "rings"))
    job = closure(tr, n, "QQ")
    config = WORK_DIR / "ideal.json"
    config.write_text(json.dumps(job.config))
    _, rc, out = program.run([job.command, "--config", str(config),
                              "--format", "json"])
    if rc != 0:
        raise RuntimeError(f"{job.label} exited {rc}")
    alpha = geometry.sum_of_powers(tr["num_forms"], tr["power"],
                                   tr.get("form_degree", 1))
    vs = geometry.target_varset(alpha.target, n)
    texts = []
    for text in json.loads(out)["generators"]:
        f = poly.parse_poly(text, rings.QQ, vs)
        den = 1
        for c in f.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        num = 0
        for c in f.terms.values():
            num = gcd(num, int(c * den))
        scale = Fraction(den, num)
        texts.append(poly.format_poly(
            f.map_coefficients(lambda c: int(c * scale), rings.ZZ)))
    return {"variables": list(vs.names), "weights": list(vs.weights),
            "generators": texts}


def main() -> int:
    WORK_DIR.mkdir(exist_ok=True)
    program = Program()
    try:
        ideals = {name: cleared_ideal(program, tr, n)
                  for name, (tr, n) in IDEAL_SOURCES.items()}
        (DATA_DIR / "ideals.json").write_text(json.dumps(ideals, indent=1) + "\n")
        reference = {}
        for workload, build in WORKLOADS.items():
            cache = WORK_DIR / "record-cache"
            shutil.rmtree(cache, ignore_errors=True)
            for i, job in enumerate(build(list)):
                config = WORK_DIR / f"record{i}.json"
                config.write_text(json.dumps(job.config))
                argv = [job.command, "--config", str(config), "--format", "json"]
                if job.cached:
                    argv += ["--cache-dir", str(cache)]
                runs = [program.run(argv) for _ in range(2 if job.cached else 1)]
                for _, rc, out in runs:
                    if rc != 0:
                        raise RuntimeError(f"{job.label} exited {rc}")
                if len({out for _, _, out in runs}) != 1:
                    raise RuntimeError(f"{job.label}: warm output differs")
                reference[job.label] = digest(runs[0][2])
                print(f"{workload:12s} {runs[0][0]:7.3f}s  {job.label}",
                      flush=True)
        (DATA_DIR / "reference.json").write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
