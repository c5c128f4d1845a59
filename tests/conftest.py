from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, settings

from priorsearch import Population, strategies, validate_population

settings.register_profile(
    "deterministic",
    settings(
        derandomize=True,
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    ),
)
settings.load_profile("deterministic")


def random_population(
    rng: np.random.Generator,
    n: int,
    s_lo: float = 0.3,
    s_hi: float = 1.0,
    perfect: bool = False,
) -> Population:
    p = rng.dirichlet(np.ones(n))
    s = None if perfect else rng.uniform(s_lo, s_hi, size=n)
    return validate_population(p, s)


def random_simplex(rng: np.random.Generator, n: int, floor: float = 1e-3) -> np.ndarray:
    q = rng.dirichlet(np.ones(n)) + floor
    return q / q.sum()


def equal_mass_population(n: int) -> Population:
    """p_i = 2i / (N (N+1)) and s_i = 1 / i: every detection mass s_i p_i is 2 / (N (N+1))."""
    i = np.arange(1, n + 1)
    return validate_population(2.0 * i / (n * (n + 1)), 1.0 / i)


@contextmanager
def cut_rule(eps: float | None = None, cap: int | None = None):
    """Within the block, EF, J and MN are cut at tail target ``eps`` and step cap ``cap`` (None keeps one).

    Both are the constants strategies.TAIL_EPS and HORIZON_CAP, which every builder reads when it runs.
    """
    with pytest.MonkeyPatch.context() as mp:
        if eps is not None:
            mp.setattr(strategies, "TAIL_EPS", eps)
        if cap is not None:
            mp.setattr(strategies, "HORIZON_CAP", cap)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


POP_CSV_TEXT = "id,p,s\na,0.5,1\nb,0.3,1\nc,0.2,0.5\n"
PERFECT_CSV_TEXT = "id,p\na,0.5\nb,0.3\nc,0.2\n"
# Population JSON files that do not parse into numeric arrays, by test id.
MALFORMED_JSON = {
    "truncated": '{"p": [0.5, 0.5',
    "p-not-numbers": '{"p": "abc"}',
    "s-not-numbers": '{"p": [0.5, 0.5], "s": [1, "x"]}',
    "id-string": '{"p": [0.5, 0.5], "id": "ab"}',
    "id-object": '{"p": [0.5, 0.5], "id": {"x": 1, "y": 2}}',
    "p-s-booleans": '{"p": [true], "s": [true]}',
    "s-booleans": '{"p": [0.5, 0.5], "s": [true, false]}',
    "p-huge-integer": '{"p": [1' + "0" * 400 + "]}",
    # null is not an array, and not an absent column either.
    "p-null": '{"p": null}',
    "s-null": '{"p": [0.5, 0.5], "s": null}',
    "lambda-null": '{"p": [0.5, 0.5], "lambda": null}',
    "id-null": '{"p": [0.5, 0.5], "id": null}',
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def pop_csv(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(POP_CSV_TEXT)
    return str(path)


@pytest.fixture
def perfect_csv(tmp_path):
    path = tmp_path / "perfect.csv"
    path.write_text(PERFECT_CSV_TEXT)
    return str(path)
