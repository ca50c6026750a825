"""The pure-Python stream equals numpy's ``default_rng(seed)`` bit for bit."""

import json

import numpy as np
import pytest

from bosonqec.cli import main
from bosonqec.codes import CodeSpec
from bosonqec.logical import run_encoding_protocol
from bosonqec.rng import Generator

# the program seeds of the benchmark's pinned reports, the largest 32-bit
# seed, and seeds of 2 and of 5+ words: the last runs SeedSequence's loop
# over the words beyond its pool of 4
SEEDS = [*range(32), 2**32 - 1, 2**32, 2**128 + 12345, 3**200]


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_draws_equal_numpy(seed):
    assert Generator(seed).uniform(0.0, 10.0, 500) == (
        np.random.default_rng(seed).uniform(0.0, 10.0, 500).tolist()
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_successive_random_draws_equal_numpy(seed):
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    assert [ours.random() for _ in range(50)] == [theirs.random() for _ in range(50)]


def test_mixed_draws_continue_one_stream():
    ours, theirs = Generator(2026), np.random.default_rng(2026)
    assert ours.random() == theirs.random()
    assert ours.uniform(-3.5, 2.25, 7) == theirs.uniform(-3.5, 2.25, 7).tolist()
    assert ours.random() == theirs.random()


def test_no_draws():
    ours = Generator(5)
    assert ours.uniform(0.0, 10.0, 0) == []
    assert ours.random() == np.random.default_rng(5).random()


def test_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Generator(-1)


def test_nothing_draws_without_a_seed():
    # no entropy default: a sampled branch is always one its seed draws
    # again, and a run without a seed returns every branch
    with pytest.raises(TypeError):
        Generator()
    assert len(run_encoding_protocol(0.6, 0.8, CodeSpec("extended_binomial", 1, 1))) == 4


@pytest.mark.parametrize("seed", [0, 7, 31, 4_000_000_000])
def test_cc_durations_are_the_sorted_numpy_draws(tmp_path, seed):
    out = tmp_path / "cc.json"
    assert main(["cc", "--w", "1", "--k", "1", "--num-random", "200", "--seed", str(seed),
                 "--out", str(out)]) == 0
    sweep = json.loads(out.read_text())["results"]["sweep"]
    expected = sorted(np.random.default_rng(seed).uniform(0.0, 10.0, 200).tolist())
    assert [row["delta_t"] for row in sweep[::2]] == expected
    assert [row["delta_t"] for row in sweep[1::2]] == expected


@pytest.mark.parametrize("seed", range(12))
def test_sampled_encoding_branch_follows_numpy_draw(seed):
    spec = CodeSpec("extended_binomial", 2, 1)
    traces = run_encoding_protocol(0.6, 0.8, spec)
    r, acc = np.random.default_rng(seed).random(), 0.0
    expected = traces[-1]
    for trace in traces:
        acc += trace.probability
        if r <= acc:
            expected = trace
            break
    (sampled,) = run_encoding_protocol(0.6, 0.8, spec, seed)
    assert sampled.outcomes == expected.outcomes
