import os
import random

import pytest

from coxdunkl.cli import BLAS_THREAD_VARS
from coxdunkl.polynomials import MultiPoly
from coxdunkl.scalars import KPoly
from coxdunkl.suite import group_context


@pytest.fixture(autouse=True)
def _keep_blas_thread_vars():
    """Restore the BLAS thread variables after each test: `cli.main` pins
    those that are unset, and an in-process call must not leak that."""
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


@pytest.fixture(scope="session")
def ctx_a1():
    return group_context("A1")


@pytest.fixture(scope="session")
def ctx_a2():
    return group_context("A2")


@pytest.fixture(scope="session")
def ctx_b2():
    return group_context("B2")


def random_kpoly(rs, rng, k_degree):
    """Random KPoly of k-degree <= k_degree with small field coefficients."""
    return KPoly.from_coeffs(rs.spec, [
        rs.spec.element(*(rng.randint(-3, 3) for _ in range(rs.spec.degree)))
        for _ in range(k_degree + 1)])


def random_multipoly(rs, rng, max_degree=5, terms=4, homogeneous=False,
                     k_degree=0):
    """Small random polynomial (deterministic rng): integer coefficients, or
    random_kpoly coefficients when k_degree > 0."""
    mapping = {}
    deg = rng.randint(0, max_degree)
    for _ in range(terms):
        if not homogeneous:
            deg = rng.randint(0, max_degree)
        exps = [0] * rs.rank
        left = deg
        for i in range(rs.rank - 1):
            exps[i] = rng.randint(0, left)
            left -= exps[i]
        exps[rs.rank - 1] = left
        key = tuple(exps)
        mapping[key] = mapping.get(key, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    mapping = {e: c for e, c in mapping.items() if c}
    if k_degree:
        mapping = {e: random_kpoly(rs, rng, k_degree) for e in mapping}
    if not mapping:
        mapping = {(0,) * rs.rank: 1}
    return MultiPoly.from_terms(rs, mapping)


def divide_out_roots(b, roots):
    """b divided exactly by (k + r) for each r of `roots`, repeats
    included; asserts that every division leaves no remainder."""
    for r in roots:
        b, rem = b.divmod(KPoly.from_coeffs(b.spec, [r, 1]))
        assert rem.is_zero(), f"k = -{r} is not a root of the quotient"
    return b
