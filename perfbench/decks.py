"""Seeded request decks for the three workloads.

A deck is a list of blocks; a block is a list of requests whose command
mix is the same in every block, so a run that stops on a block boundary
has the same mix whatever the seed.  The seed only decides the order, the
output flags, the scale factors and the template documents.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement

BUNDLED = "src/efxcheck/paper_instance.json"
FORMATS = ("json", "csv", "markdown")
WITNESSES = ("0", "1", "10")

# Scale factors from both sides of the threshold 2^(-1/6) ~ 0.8908987, one
# per --format/--witnesses combination, so every pass over the deck uses
# each factor once.
ALPHAS = ("9/10", "0.95", "1", "lambda^1/2", "0.8909", "lambda^1", "1/2", "0.8908", "lambda^2")

# The ROADMAP command table: (request kind, argv head).
BUILTIN_COMMANDS = (
    ("verify", ("verify", "ordinal")),
    ("verify", ("verify", "coverage")),
    ("verify_alpha", ("verify", "subadditive")),
    ("properties", ("properties", "ordinal")),
    ("properties", ("properties", "subadditive")),
    ("properties", ("properties", "coverage")),
    ("lemmas", ("lemmas",)),
    ("alpha_star", ("alpha-star",)),
    ("tables", ("tables",)),
)
COLD_COMMANDS = BUILTIN_COMMANDS + (("template_verify", ("template", BUNDLED, "verify")),)

KINDS = (
    "verify",
    "verify_alpha",
    "properties",
    "lemmas",
    "alpha_star",
    "tables",
    "template_verify",
    "template_properties",
)

TYPES = ("A", "B", "C", "x", "y")
GOODS_OF_TYPE = {"A": (0, 3), "B": (1, 4), "C": (2, 5), "x": (6,), "y": (7,)}
PAIR_CELLS = tuple(
    (a, b) for a, b in combinations_with_replacement(TYPES, 2) if a != b or len(GOODS_OF_TYPE[a]) > 1
)
TRIPLE_CELLS = tuple(
    triple
    for triple in combinations_with_replacement(TYPES, 3)
    if all(triple.count(t) <= len(GOODS_OF_TYPE[t]) for t in set(triple))
)
PERMUTATIONS = ((0, 1, 2, 3, 4, 5, 6, 7), (1, 2, 0, 4, 5, 3, 6, 7), (2, 0, 1, 5, 3, 4, 6, 7))


def nproc() -> int:
    """CPUs this process may run on, as nproc(1) counts them."""
    return len(os.sched_getaffinity(0))


def max_workers() -> int:
    """Largest --workers a request may ask for: never more than the CPUs."""
    return min(2, nproc())


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    fmt: str
    workers: int
    alpha: str | None = None
    doc: dict | None = None

    @property
    def same_output_key(self) -> tuple[str, ...]:
        """Requests with equal keys must print identical bytes: the worker
        count is the only flag that may not change stdout."""
        at = self.argv.index("--workers")
        return self.argv[:at] + self.argv[at + 2:]


def guard_workers(request: Request) -> None:
    """Refuse a request that would ask efxcheck for more processes than CPUs."""
    if not 1 <= request.workers <= max_workers():
        raise ValueError(f"request asks for {request.workers} workers, cap is {max_workers()}")


def _request(kind: str, head: tuple[str, ...], fmt: str, witnesses: str, workers: int, alpha: str) -> Request:
    argv = head
    if kind == "verify_alpha":
        argv += ("--alpha", alpha)
    else:
        alpha = None
    argv += ("--format", fmt, "--witnesses", witnesses, "--workers", str(workers))
    return Request(kind, argv, fmt, workers, alpha)


def builtin_deck(seed: int, commands, worker_counts: tuple[int, ...]) -> list[list[Request]]:
    """Every command crossed with --format and --witnesses, once per worker
    count.  A block holds one round per worker count with the same flags,
    so each block compares worker counts on every command."""
    rng = random.Random(seed)
    combos = [(fmt, wit) for fmt in FORMATS for wit in WITNESSES]
    per_command = [rng.sample(combos, len(combos)) for _ in commands]
    alphas = rng.sample(ALPHAS, len(ALPHAS))
    blocks = []
    for index in range(len(combos)):
        block = []
        for workers in worker_counts:
            round_ = [
                _request(kind, head, *per_command[c][index], workers, alphas[index])
                for c, (kind, head) in enumerate(commands)
            ]
            rng.shuffle(round_)
            block.extend(round_)
        blocks.append(block)
    return blocks


def bundled_doc(root) -> dict:
    with open(os.path.join(root, BUNDLED), encoding="utf-8") as handle:
        return json.load(handle)


def _doc(pair_ranks: dict, exceptional, top_rank: int, permutation) -> dict:
    rows: dict[str, dict[str, int]] = {}
    for (a, b), rank in pair_ranks.items():
        rows.setdefault(a, {})[b] = rank
    return {
        "types": [{"name": t, "goods": list(GOODS_OF_TYPE[t])} for t in ("A", "B", "C")],
        "special_goods": {"x": 6, "y": 7},
        "pair_ranks": rows,
        "exceptional": [list(t) for t in exceptional],
        "top_rank": top_rank,
        "permutation": list(permutation),
    }


def mutated_doc(rng: random.Random, base: dict) -> dict:
    """The bundled instance with one pair-rank cell changed."""
    ranks = {(a, b): r for a, row in base["pair_ranks"].items() for b, r in row.items()}
    cell = rng.choice(sorted(ranks))
    ranks[cell] = rng.choice([r for r in range(1, base["top_rank"] + 1) if r != ranks[cell]])
    return _doc(ranks, base["exceptional"], base["top_rank"], base["permutation"])


def random_doc(rng: random.Random) -> dict:
    """Random pair table, exceptional triples, top rank and relabeling."""
    top_rank = rng.randint(2, 9)
    ranks = {cell: rng.randint(1, top_rank) for cell in PAIR_CELLS}
    exceptional = rng.sample(TRIPLE_CELLS, rng.randint(0, 3))
    return _doc(ranks, exceptional, top_rank, rng.choice(PERMUTATIONS))


def template_deck(seed: int, base: dict, n_blocks: int) -> list[list[Request]]:
    """Blocks of ten never-repeated documents: from each family, four for
    verify and one for properties.  With verify the large majority, the
    median time falls inside the spread of verify times, not in the gap
    between the two actions.  The document path is filled in when the run
    writes the files."""
    rng = random.Random(seed)
    blocks = []
    for _ in range(n_blocks):
        block = []
        for family in ("mutation", "random"):
            for action in ("verify",) * 4 + ("properties",):
                doc = mutated_doc(rng, base) if family == "mutation" else random_doc(rng)
                fmt, wit = rng.choice(FORMATS), rng.choice(WITNESSES)
                argv = ("template", "", action, "--format", fmt, "--witnesses", wit, "--workers", "1")
                block.append(Request(f"template_{action}", argv, fmt, 1, doc=doc))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def with_path(request: Request, path: str) -> Request:
    return replace(request, argv=request.argv[:1] + (path,) + request.argv[2:])
