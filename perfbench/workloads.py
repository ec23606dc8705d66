"""Workload definitions: each workload is one job, a fixed sequence of qfock
CLI invocations run one after another as fresh processes.

A job is a list of ``Step``s.  ``argv`` is what follows ``python -m qfock``;
``check`` names the output check in ``checks.py`` that judges the step.
Relative paths in ``argv`` resolve against the checkout root.
"""
from __future__ import annotations

from dataclasses import dataclass

@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    check: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[Step, ...]  # argv may hold the placeholder {seed}

    def job_steps(self, seed: int) -> list[Step]:
        return [Step(tuple(a.replace("{seed}", str(seed)) for a in s.argv), s.check)
                for s in self.steps]


def _step(cmd: str, check: str) -> Step:
    return Step(tuple(cmd.split()), check)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "verify-default",
            "default verify: 12 hermitian dense-path doubled norms at dim 63 dominate time and dim^2 matrices set RSS",
            (_step("verify --suite all --n 2 --q 0.1 --level 5 --seed {seed}", "verify_all"),),
        ),
        Workload(
            "conjugate-series",
            "20-order conjugate series at dim 31: many short non-hermitian Lanczos norms and derivations at every order",
            (_step("conjugate --n 2 --q 0.05 --level 4 --terms 20", "conjugate"),),
        ),
        Workload(
            "frontier-L6",
            "L=6 (dim 127 > 64): every doubled-space call takes the matrix-free stack path",
            (
                _step("xi --n 2 --q 0.1 --level 6 --trunc-q 5", "xi"),
                _step("verify --suite derivations --n 2 --q 0.1 --level 6 --seed {seed}", "verify"),
            ),
        ),
        Workload(
            "level-kernels",
            "no doubled-space work: S_n Gram sums, Gram blocks and word operators only",
            (
                _step("gram --n 2 --q 0.3 --level 8", "gram"),
                _step("verify --suite operators --n 3 --q 0.1 --level 5 --seed {seed}", "verify"),
                _step("verify --suite bozejko --n 3 --q 0.1 --level 5 --seed {seed}", "verify"),
            ),
        ),
        Workload(
            "cocycle-chain",
            "pure-Python cocycle splitting chain with RNG; no Fock-space layer runs",
            (
                _step("cocycle-sim --spec z-splitting --init 12 --paths 50000 --max-jumps 64 --seed {seed}", "cocycle"),
                _step("cocycle-sim --spec perfbench/free_rank2.json --init abbab,bba --paths 50000 --max-jumps 64 --seed {seed}", "cocycle"),
            ),
        ),
    ]
}
