"""The fixed workloads of the bosonqec benchmark.

Each workload is an ordered list of ``bosonqec`` command lines.  The
benchmark seed reaches the program only through the ``{seed}``
placeholder, which appears in the ``cc`` and sampled ``encode``
invocations of ``sweep-suite``; every other invocation is the same on
every run.

Three configurations are left out of every workload because they are
too large to run inside one benchmark run; their sizes are computed by
``left_out_sizes`` from combinatorics alone, without running them.
"""

from __future__ import annotations

from math import comb

SEED_PLACEHOLDER = "{seed}"

# The no-work invocation whose wall time is ``setup_s``.
SETUP_ARGV = ("budget", "--nc", "82")


def _verify(family: str, w: int, k: int) -> tuple[str, ...]:
    return ("verify", "--family", family, "--w", str(w), "--k", str(k))


def _scaling(family: str, w: int, k: int) -> tuple[str, ...]:
    return ("scaling", "--family", family, "--w", str(w), "--k", str(k), "--recovery", "both")


def _syndrome(w: int, k: int) -> tuple[str, ...]:
    return ("syndrome", "--w", str(w), "--k", str(k))


def _cc(family: str, w: int, k: int) -> tuple[str, ...]:
    return (
        "cc", "--family", family, "--w", str(w), "--k", str(k),
        "--num-random", "2000", "--seed", SEED_PLACEHOLDER,
    )


WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # kl.kl_matrix (3,066,964 overlap entries, mostly fock.inner) and the
    # full-space logical algebra of ext-bin; sets the memory peak.
    "verify-grid": (
        _verify("ext-bin", 3, 3),
        _verify("ext-bin", 3, 2),
        _verify("ext-bin", 2, 3),
        _verify("ce-ext-bin", 3, 2),
        _verify("ce-ext-bin", 2, 2),
        _verify("qubit-shor", 2, 3),
        _verify("qubit-shor", 2, 1),
    ),
    # Transpose recovery composed over weight-(w+2) channels; no KL matrix
    # and no logical algebra.
    "scaling-grid": (
        _scaling("ext-bin", 2, 2),
        _scaling("ext-bin", 3, 1),
        _scaling("ext-bin", 1, 3),
        _scaling("ext-bin", 2, 1),
        _scaling("ext-bin", 1, 1),
        _scaling("ce-ext-bin", 1, 2),
        _scaling("qubit-shor", 1, 2),
    ),
    # Many tiny PureStates, JSON rendering and process start-up; no KL
    # matrix and no transpose recovery.
    "sweep-suite": (
        _syndrome(3, 3),
        _syndrome(3, 2),
        _syndrome(2, 3),
        _syndrome(2, 2),
        _cc("ce-ext-bin", 3, 3),
        _cc("ext-bin", 3, 3),
        _cc("qubit-shor", 2, 2),
        _cc("ext-bin", 1, 1),
        ("encode", "--w", "1"),
        ("encode", "--w", "2", "--alpha", "0.6", "--beta", "0.8"),
        ("encode", "--w", "3", "--sampled", "--seed", SEED_PLACEHOLDER),
        ("table1", "--max-w", "3", "--max-k", "3"),
        ("codeword", "--family", "ext-bin", "--w", "3", "--k", "3", "--label", "101"),
        SETUP_ARGV,
    ),
}

# Too large to run in a benchmark run; see ``left_out_sizes``.
LEFT_OUT = (
    ("verify-grid", _verify("ce-ext-bin", 3, 3)),
    ("verify-grid", _verify("qubit-shor", 3, 3)),
    ("scaling-grid", _scaling("ext-bin", 3, 3)),
)


def program_seed(seed: int) -> int:
    """The ``--seed`` handed to bosonqec: numpy needs a nonnegative seed."""
    return seed % 2**32


def expand(argv: tuple[str, ...], seed: int) -> tuple[str, ...]:
    return tuple(str(program_seed(seed)) if a == SEED_PLACEHOLDER else a for a in argv)


def is_seeded(argv: tuple[str, ...]) -> bool:
    return SEED_PLACEHOLDER in argv


def key(argv: tuple[str, ...]) -> str:
    """Stable name of an invocation template, used in the reference file."""
    return " ".join(argv)


def num_modes(family: str, w: int, k: int) -> int:
    """Mode count of a code family, as ``bosonqec.codes.CodeSpec.num_modes``."""
    return {
        "ext-bin": w + k,
        "ce-ext-bin": 2 * (w + k),
        "qubit-shor": (w + 1) * (w + k),
    }[family]


def work_size(argv: tuple[str, ...]) -> dict[str, int]:
    """Work counts of a verify or scaling invocation, from combinatorics.

    ``verify`` builds C(n+w, w) loss patterns and patterns^2 * 4^K KL
    entries.  ``scaling`` applies C(n+w+2, w+2) channel patterns and
    composes each with the C(n+w, w) transpose-recovery patterns, at
    each of the 8 default gammas and twice per recovery (curve, slope).
    """
    opts = dict(zip(argv[1::2], argv[2::2]))
    family, w, k = opts["--family"], int(opts["--w"]), int(opts["--k"])
    n = num_modes(family, w, k)
    patterns = comb(n + w, w)
    if argv[0] == "verify":
        return {"modes": n, "patterns": patterns, "kl_entries": patterns**2 * 4**k}
    channel = comb(n + w + 2, w + 2)
    return {
        "modes": n,
        "patterns": patterns,
        "channel_patterns": channel,
        "composed_branches_per_gamma": channel * patterns,
    }


def left_out_sizes() -> list[tuple[str, tuple[str, ...], dict[str, int]]]:
    return [(workload, argv, work_size(argv)) for workload, argv in LEFT_OUT]
