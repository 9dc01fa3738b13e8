"""The package's public surface: exactly the names its modules publish, and
the README's library example."""

import importlib
import inspect
import re
from pathlib import Path

import prenex

PUBLIC_NAMES = [
    "CLASS_CAP",
    "CanonicalClass",
    "CensusReport",
    "DecideStats",
    "DuplicateVariableError",
    "EmptyPrefixError",
    "ImplicationGraph",
    "InstanceTooLargeError",
    "LengthMismatchError",
    "ORACLE_CAP",
    "PAIR_CAP",
    "Prefix",
    "PrefixError",
    "PrefixSyntaxError",
    "Quantifier",
    "RejectWitness",
    "Run",
    "VariableSetMismatchError",
    "Verdict",
    "__version__",
    "build_graph",
    "canonicalize",
    "closure",
    "count_pairs",
    "count_pairs_via_graph",
    "decide_with_stats",
    "default_names",
    "ensure_same_universe",
    "enumerate_classes",
    "equivalent",
    "export_graph",
    "format_prefix",
    "implies",
    "oracle_implies",
    "parse_prefix",
    "parse_prefix_pair",
    "random_prefix",
    "reachability_bitsets",
    "runs",
    "validate_witness",
]

MODULES = ["prefix", "decide", "oracle", "census", "errors"]


def test_all_is_the_pinned_list_without_duplicates():
    assert len(PUBLIC_NAMES) == 40
    assert sorted(prenex.__all__) == PUBLIC_NAMES
    assert len(set(prenex.__all__)) == len(prenex.__all__)


def test_each_name_is_its_defining_module_object():
    published = {"__version__": "prenex"}
    for name in MODULES:
        module = importlib.import_module(f"prenex.{name}")
        for attr in module.__all__:
            assert attr not in published, f"{attr} published twice"
            published[attr] = name
            obj = getattr(module, attr)
            assert getattr(prenex, attr) is obj
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__
    assert sorted(published) == PUBLIC_NAMES


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from prenex import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(prenex, name) for name in namespace)


def test_readme_example_gives_what_its_comments_say():
    # each ``# <expr> -> <value>`` comment in a python block of the README
    # is checked against ``repr(<expr>)`` after the block has run
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for code in blocks:
        namespace = {}
        exec(code, namespace)
        claims = re.findall(r"^# (.+?) -> (.+)$", code, re.M)
        assert claims, code
        for expr, value in claims:
            assert repr(eval(expr, namespace)) == value, expr
