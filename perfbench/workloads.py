"""Workload definitions for the benchmark: sizes, expected outputs, the cli
query catalog and the metric names each mode prints.

``run.py`` (the measuring parent) and ``worker.py`` (the measured child)
both read this module, so they agree on what a workload is.  Smoke sizes
are tiny versions of the full workloads, run by ``test_smoke.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens.json"


@dataclass(frozen=True)
class Workload:
    kind: str  # "sweep" | "cli"
    rank_max: int = 0  # sweep: verify.run_suite(rank_max, suites)
    suites: tuple[str, ...] = ()
    records: int = 0  # CheckRecords one sweep pass must produce
    anchors: dict = field(default_factory=dict)  # exact traced call counts
    min_passes: int = 1  # passes a measured run makes even past --seconds


WORKLOADS = {
    "sweep-structure": Workload(
        "sweep", rank_max=9, suites=("structure",), records=7560,
        anchors={"ar_quiver.build.calls": 504}, min_passes=2,
    ),
    "sweep-classify": Workload(
        "sweep", rank_max=6, suites=("orders", "qaffine"), records=467,
        anchors={"orders.classify_pair.calls": 14864,
                 "orders.canonical_reading.calls": 17060}, min_passes=2,
    ),
    "cli": Workload("cli"),
}

SMOKE_WORKLOADS = {
    "sweep-structure": Workload(
        "sweep", rank_max=4, suites=("structure",), records=120,
        anchors={"ar_quiver.build.calls": 8},
    ),
    "sweep-classify": Workload(
        "sweep", rank_max=4, suites=("orders", "qaffine"), records=83,
        anchors={"orders.classify_pair.calls": 672,
                 "orders.canonical_reading.calls": 796},
    ),
    "cli": Workload("cli"),
}


def workload(name: str, smoke: bool) -> Workload:
    return (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]


# --- metrics -----------------------------------------------------------------

END_TO_END = {
    "sweep_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# traced spans and leaves: "<module>.<function or group>" -> calls, self_s
TRACED_CALLS = (
    "root_system.apply_word", "root_system.reflect", "root_system.pairing",
    "quiver", "ar_quiver.build", "ar_quiver.prec", "orders.pairs_of",
    "orders.classify_pair", "orders.canonical_reading", "orders.check_convexity",
    "qaffine.mq", "qaffine.denom",
)
TRACED_SELF = (
    "root_system.apply_word", "root_system.pairing", "quiver", "ar_quiver.build",
    "ar_quiver.validate_build", "ar_quiver.descendants", "ar_quiver.sectional_paths",
    "orders.pairs_of", "orders.classify_pair", "orders.canonical_reading",
    "orders.check_convexity", "orders.oracle_classify", "orders.commutation_class",
    "qaffine.mq", "qaffine.dorey", "qaffine.pair_to_triple",
)
CLI_COMMANDS = ("roots", "build", "order", "pairs", "denom", "dorey")

PER_LAYER = {
    **{f"{name}.calls": "count" for name in TRACED_CALLS},
    **{f"{name}.self_s": "s" for name in TRACED_SELF},
    "orders.pairs_of.hit_ratio": "ratio",
    "orders.canonical_per_classify": "ratio",
    "orders.all_readings.yielded": "count",
    "orders.commutation_class.words": "count",
    "qaffine.denom.hit_ratio": "ratio",
    **{f"verify.{group}.check_s": "s"
       for group in ("structure", "orders", "qaffine", "global")},
    "verify.records": "count",
    "verify.orientations": "count",
    "cli.import_s": "s",
    **{f"cli.{command}.inproc_ms": "ms" for command in CLI_COMMANDS},
    "trace.overhead_frac": "ratio",
}
HIGHER_IS_BETTER = {
    "orders.pairs_of.hit_ratio", "qaffine.denom.hit_ratio",
    "verify.records", "verify.orientations",
}


# --- cli queries ---------------------------------------------------------------

def _alternating(rank: int) -> int:
    return sum(1 << bit for bit in range(0, rank - 1, 2))


def arrow_spec(rank: int, mask: int) -> str:
    """``--arrows`` text of the type-D orientation that
    ``DynkinQuiver.from_bitmask`` builds: bit k reverses the k-th sorted edge."""
    edges = sorted([(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)])
    return ",".join(
        f"{hi}>{lo}" if mask >> bit & 1 else f"{lo}>{hi}"
        for bit, (lo, hi) in enumerate(edges)
    )


def _quiver(rank: int, mask: int) -> list[str]:
    return ["--type", "D", "--rank", str(rank), "--arrows", arrow_spec(rank, mask)]


def _cli_catalog() -> list[list[str]]:
    """The 50 distinct queries of the cli workload.

    40 light queries at D8, D12 and D16, each rank with two fixed
    orientations: every edge forward, and every other edge reversed.  10 slow
    ``pairs`` queries at D16, chosen among orientations and roots where the
    classifier costs about the same (0.7-0.9 s on a 2-vCPU host).  A pass
    runs each query twice, so the slow class is 20 of 100 and p90 is its
    median, not an edge between query types.
    """
    shapes = [(rank, mask) for rank in (8, 12, 16) for mask in (0, _alternating(rank))]
    queries = [["roots", "--type", "D", "--rank", str(rank), "--format", "json"]
               for rank in (8, 12, 16)]
    for rank, mask in shapes:
        queries.append(["build", *_quiver(rank, mask), "--format", "json"])
        queries.append(["build", *_quiver(rank, mask), "--format", "ascii"])
    for (rank, mask), strategy in zip(shapes, ("u1", "u2", "l1", "l2", "u1", "l2")):
        queries.append(
            ["order", *_quiver(rank, mask), "--strategy", strategy, "--format", "json"]
        )
    light = [(rank, mask, gamma) for rank, mask in shapes[:4] for gamma in ("e1+e2", "e3-e7")]
    slow = [(16, mask, "e4-e10") for mask in (0, 0x7FFF, 0x3F, 0xFF, 0x7F00)]
    slow += [(16, mask, "e5-e11") for mask in (0, 0x7FFF, 0x3F, 0xFF)]
    slow += [(16, 0, "e3-e9")]
    for rank, mask, gamma in light[:7] + slow:
        queries.append(["pairs", *_quiver(rank, mask), "--gamma", gamma, "--format", "json"])
    for family, rank, k, l, at in (
        ("D1", 8, 2, 2, "(-q)^4"), ("D1", 12, 3, 5, "(-q)^6"),
        ("D1", 16, 15, 16, "(-q)^4"), ("D2", 8, 2, 8, "(-q^2)^3"),
        ("D2", 12, 4, 4, "(-q^2)^4"), ("D2", 16, 16, 16, "(-q^2)^2"),
    ):
        queries.append(["denom", "--family", family, "--rank", str(rank), "-k", str(k),
                        "-l", str(l), "--at", at, "--format", "json"])
    for family, rank, triple in (
        ("D1", 8, "(3,-4);(3,-2);(2,-3)"), ("D1", 12, "(2,0);(3,-5);(5,-2)"),
        ("D1", 16, "(4,-1);(4,-9);(8,-5)"), ("D2", 8, "(1,0);(1,-4);(2,-2)"),
        ("D2", 12, "(3,-2);(2,-5);(5,-3)"), ("D2", 16, "(16,0);(16,-4);(2,-2)"),
    ):
        queries.append(["dorey", "--family", family, "--rank", str(rank),
                        "--triple", triple, "--format", "json"])
    return queries


def _first_of_each_kind(catalog: list[list[str]]) -> list[list[str]]:
    kinds: dict[tuple[str, str], list[str]] = {}
    for query in catalog:
        kinds.setdefault((query[0], query[-1]), query)
    return list(kinds.values())


CLI_CATALOG = _cli_catalog()
# both build formats and one pairs query, all at D8
SMOKE_CLI_CATALOG = [q for q in _first_of_each_kind(CLI_CATALOG) if q[0] in ("build", "pairs")]


def cli_pass(seed: int, index: int, smoke: bool) -> list[list[str]]:
    """Pass ``index`` of a run: every catalog query twice, shuffled by seed."""
    catalog = SMOKE_CLI_CATALOG if smoke else CLI_CATALOG
    queries = [query for query in catalog for _ in range(2)]
    random.Random(seed * 1_000_003 + index).shuffle(queries)
    return queries


def query_key(argv: list[str]) -> str:
    return " ".join(argv)


def output_digest(argv: list[str], stdout: str) -> str:
    """Digest of a query's output; JSON is compared by value, not layout."""
    if argv[-1] == "json":
        stdout = json.dumps(json.loads(stdout), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(stdout.encode()).hexdigest()


def records_digest(records) -> str:
    """Digest of the deterministic part of CheckRecords: all but ``elapsed``."""
    rows = [[r.check_id, r.suite, r.rank, r.orientation, r.status, r.counterexample]
            for r in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def import_checkout_arquiver():
    """Import ``arquiver`` from this checkout's ``src``, never an installed copy."""
    if not (SRC / "arquiver" / "__init__.py").is_file():
        raise SystemExit(f"error: no arquiver package under {SRC}")
    sys.path.insert(0, str(SRC))
    import arquiver

    if Path(arquiver.__file__).resolve().parent != SRC / "arquiver":
        raise SystemExit(f"error: imported arquiver from {arquiver.__file__}, not {SRC}")
    return arquiver
