"""A generated-config gate: one leaf of a bundled fixture mutated, and every
command run on it in-process.

Whatever the mutant, each command must end in a documented exit code (0
success, 2 validation, 3 infeasible, 4 numerical), name the mutated key in
an exit 2's message (the nearest named block for a list entry), print strict
JSON when it prints a report, let no exception or RuntimeWarning escape, and
finish within a deadline.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import time
import warnings

from hypothesis import example, given, settings, strategies as st

from trialalloc.cli import main
from trialalloc.fixtures import load_fixture

COMMANDS = [("eval",), ("design",), ("design", "--mode", "exact"), ("efficiency",)]
DEADLINE_S = 10.0


def _base(name: str) -> dict:
    """A fixture with a ``designs`` block beside its ``design``, so that
    ``efficiency`` runs too."""
    config = load_fixture(name)
    config["designs"] = {"reference": list(config["design"]),
                         "alternative": [12, 6, 8, 12, 2]}
    return config


BASES = {name: _base(name) for name in ("maize_network", "maize_family_blocks")}


def _paths(node, prefix=()):
    """The path of every value below ``node``, blocks and leaves alike."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


PATHS = {name: list(_paths(config)) for name, config in BASES.items()}


def _number(old) -> float:
    return old if isinstance(old, (int, float)) and not isinstance(old, bool) else 1


# each takes the old value to a replacement; None drops the value instead
REPLACEMENTS = {
    "drop": st.none(),
    "wrong type": st.sampled_from(["x", True, None, [], [1, 2], {}]).map(lambda v: lambda old: v),
    "huge": st.sampled_from([1e12, 2**53, 1e20, 2**63, 1e300, 10**400]).map(
        lambda v: lambda old: v),
    "tiny": st.sampled_from([1e-12, 1e-160, 1e-300, 5e-324]).map(lambda v: lambda old: v),
    "negative": st.just(lambda old: -abs(_number(old))),
    "fractional": st.just(lambda old: _number(old) + 0.5),
    "nested": st.just(lambda old: {"value": old}),
}


def _mutant(name, path, replace):
    """The fixture ``name`` with the value at ``path`` replaced (dropped when
    ``replace`` is None), and the key an exit 2 must name."""
    config = copy.deepcopy(BASES[name])
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if replace is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replace(parent[path[-1]])
    # the mutated leaf's key or, for a list entry, the nearest named block
    return config, next(key for key in reversed(path) if isinstance(key, str))


@st.composite
def mutants(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    path = draw(st.sampled_from(PATHS[name]))
    return _mutant(name, path,
                   draw(st.sampled_from(sorted(REPLACEMENTS)).flatmap(REPLACEMENTS.get)))


def _refuse_constant(name):
    raise ValueError(f"report holds {name}")


def _negative(old):
    return -abs(old)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(mutants())
@example(_mutant("maize_network", ("subregions", "ell", 1), _negative))
@example(_mutant("maize_family_blocks", ("batch", 4, "kinship", "f"), _negative))
@example(_mutant("maize_family_blocks", ("batch", 4, "kinship", "m"), _negative))
@example(_mutant("maize_family_blocks", ("batch", 4), lambda old: {"value": old}))
def test_every_command_ends_cleanly_on_a_mutated_fixture(tmp_path_factory, mutant):
    config, key = mutant
    named = re.compile(rf"(?<!\w){re.escape(key)}(?!\w)")
    path = tmp_path_factory.mktemp("mutant") / "config.json"
    path.write_text(json.dumps(config))
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--config", str(path)])
        elapsed = time.perf_counter() - start
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        if code == 2:
            assert named.search(err.getvalue()), (argv, key, err.getvalue())
        if code in (0, 3):
            json.loads(out.getvalue(), parse_constant=_refuse_constant)
        assert elapsed < DEADLINE_S, (argv, elapsed)
