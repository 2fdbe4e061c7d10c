"""Three boundaries of the package, and three rules for every module.

p is checked where it enters the program, and nowhere below that. Every
public callable that takes a prime p rejects a non-prime with ValueError. A
sweep checks its grid's primes once; the rows below, and every private
kernel, take p on trust. The only checks left under a sweep are those of
the checked constructors (ModularHarmonicSum, big_B_units) that vp3-probe
and coeff-c call once per prime, none per row.

No table outlives a call. No module keeps state between calls, so no
result depends on the calls before it. A sweep builds each harmonic table
once per (p, N), and each B row and required valuation once per (p, N, k),
not once per row.

No code without a caller. Every function, class and method in the package
is reached from the CLI's main, a module-level statement or a name kept on
purpose, with its reason (KEEP); code that only tests use lives in
tests/oracles.py. Every name a module binds at module level by assignment
is read somewhere in the package or listed in mirrorint.__all__.

No import without a reader. Every name a module of the package or of the
tests imports is read in that module.

No slow import at start-up. Each CLI command runs in a fresh process, so
it pays for every import of the package: no module imports dataclasses,
which loads inspect and, through it, ast and dis. The result records are
NamedTuples.
"""

import ast
import inspect
import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirrorint
import mirrorint.harmonic as harmonic_module
from mirrorint import congruences, padic
from mirrorint.congruences import SWEEPS, DecompositionCheck, sweep, vp3_probe
from mirrorint.constants import omega, xi
from mirrorint.harmonic import harmonic_scaled
from mirrorint.padic import big_B_sequence
from mirrorint.series import PSeries, canonical_q, max_root
from mirrorint.sieve import SieveRun
from oracles import big_B

# Valid arguments besides p, for every name in __all__ that takes p.
VALID = {
    "ModularHarmonicSum": {},
    "SieveRun": {"max_N": 10},
    "big_B_units": {"N": 3, "k": 1, "m_max": 5, "exponent": 2},
    "dwork_criterion": {"f": PSeries([1, 1]), "g": PSeries([0, 1]), "tau": 1},
    "vp_rational": {"x": F(1, 2)},
}
# A record of a run, not an entry point: its p was checked by the SieveRun
# that wrote it, and is checked again when a run resumes from it.
RECORDS = {"SieveCheckpoint"}


def takes_p(name):
    obj = getattr(mirrorint, name)
    try:
        return callable(obj) and "p" in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # builtin exception types
        return False


def test_every_public_callable_taking_p_is_listed():
    assert {n for n in mirrorint.__all__ if takes_p(n)} - RECORDS == VALID.keys()


@pytest.mark.parametrize("p", [1, 4, 9])
@pytest.mark.parametrize("name", sorted(VALID))
def test_nonprime_rejected(name, p):
    with pytest.raises(ValueError, match="p must be prime"):
        getattr(mirrorint, name)(p=p, **VALID[name])


@pytest.mark.parametrize(
    "check,params,calls",
    [
        # One check per prime of the grid, none per row.
        ("dworkS", {"p": (2, 3, 5), "Nmax": 3, "Kmax": 4}, 3),
        # The primes come from primes_upto: nothing to check.
        ("j-mod-p", {"pmax": 13, "Jmax": 200}, 0),
        # Rows read H_{p-1} off one walked sum, or unchecked per prime.
        ("wolstenholme", {"pmax": 200}, 0),
        ("wolstenholme", {"pmin": 195, "pmax": 200}, 0),
        # k v_p(N!) is read as k v_p(B(1)), unchecked: one check per prime.
        ("theorem-congruence", {"p": (2, 3), "Nmax": 3, "kmax": 1, "summax": 8}, 2),
        ("yms", {"p": (3,), "Nmax": 2, "kmax": 2, "Kmax": 3, "smax": 1}, 1),
        ("lemma11", {"p": (2, 3), "Nmax": 3, "kmax": 1, "mmax": 3, "smax": 1}, 2),
        ("lemma12", {"p": (2, 3), "Nmax": 2, "kmax": 1, "jmax": 2, "Kmax": 2}, 2),
        # The sweep's check, then ModularHarmonicSum in vp3_probe, and
        # ModularHarmonicSum and big_B_units in coeff_C_valuations.
        ("vp3-probe", {"p": (11,), "N": 848}, 4),
    ],
)
def test_sweep_checks_primes_once(monkeypatch, check, params, calls):
    seen = []
    is_prime = padic.is_prime

    def counting(n):
        seen.append(n)
        return is_prime(n)

    monkeypatch.setattr(padic, "is_prime", counting)
    assert list(sweep(check, **params))
    assert len(seen) == calls


def _names(node, name):
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _empty(node):
    # {}, [] or set().
    return (
        (isinstance(node, ast.Dict) and not node.keys)
        or (isinstance(node, ast.List) and not node.elts)
        or (isinstance(node, ast.Call) and _names(node.func, "set") and not node.args)
    )


def _module_statements(body):
    # The statements a module runs at import, through if/try/with/loops,
    # and the bodies of its classes; function bodies run per call.
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_statements(getattr(node, field, []))


def module_state(source):
    """(line, what) for each global statement, functools.cache, lru_cache
    (whatever its maxsize) and name bound to an empty dict, list or set at
    module or class level in one module's source."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append((node.lineno, "global"))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "functools.cache") for a in node.names if a.name == "cache"]
        elif _names(node, "cache") and _names(getattr(node, "value", None), "functools"):
            found.append((node.lineno, "functools.cache"))
        elif _names(node, "lru_cache"):
            found.append((node.lineno, "lru_cache"))
    for node in _module_statements(tree.body):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _empty(node.value):
            found.append((node.lineno, "empty container"))
    return found


@pytest.mark.parametrize(
    "source,found",
    [
        ("def f():\n    global x\n", ["global"]),
        ("from functools import cache\n", ["functools.cache"]),
        ("import functools\n@functools.cache\ndef f(): pass\n", ["functools.cache"]),
        ("@lru_cache\ndef f(): pass\n", ["lru_cache"]),
        ("@lru_cache()\ndef f(): pass\n", ["lru_cache"]),
        ("@lru_cache(maxsize=None)\ndef f(): pass\n", ["lru_cache"]),
        ("@functools.lru_cache(None)\ndef f(): pass\n", ["lru_cache"]),
        ("@lru_cache(maxsize=64)\ndef f(): pass\n", ["lru_cache"]),
        ("@functools.lru_cache(64)\ndef f(): pass\n", ["lru_cache"]),
        ("_MEMO = {}\n", ["empty container"]),
        ("_SEEN: list = []\n", ["empty container"]),
        ("if x:\n    _SEEN = set()\nelse:\n    _MEMO: dict = {}\n", ["empty container"] * 2),
        ("class C:\n    rows = []\n", ["empty container"]),
        ("def f():\n    seen = set()\n    rows = []\n", []),
        ("KEYS = {'a': 1}\nROW = [0]\nPRIMES = set((2, 3))\n", []),
    ],
)
def test_unbounded_state_scan(source, found):
    assert [what for _, what in module_state(source)] == found


@pytest.mark.parametrize(
    "path", sorted(Path(mirrorint.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_module_keeps_a_growing_table(path):
    assert module_state(path.read_text()) == []


def _imported_modules(tree):
    # The names that `import x` and `import x as y` bind anywhere in tree.
    return {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _reads(nodes, modules=frozenset()):
    # The names that nodes read: Name ids and Attribute attrs, less the
    # attributes read off a name in `modules` (os.truncate is no method of
    # the package). A docstring is a string, so a name that appears only in
    # one is not read.
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for root in nodes
        for node in ast.walk(root)
        if isinstance(node, ast.Name)
        or isinstance(node, ast.Attribute)
        and not (isinstance(node.value, ast.Name) and node.value.id in modules)
    }


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreached(sources, roots):
    """The top-level functions and classes, and non-dunder methods, of
    ``sources`` (module name -> source) that nothing reaches from the names
    ``roots`` and the module-level statements.

    Names resolve by name alone: a name read by a reached definition reaches
    every definition of that name, in any module, and a method is reached
    once its class is. An attribute of a module bound by `import` reaches
    nothing. A class reads its bases, decorators, class-level statements and
    dunder methods, which run without being named."""
    defs = {}  # key -> (name, class key or None, the names it reads)
    read = set(roots)
    for module, source in sources.items():
        tree = ast.parse(source)
        modules = _imported_modules(tree)
        for node in tree.body:
            if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                read |= _reads([node], modules)
                continue
            key = f"{module}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                defs[key] = node.name, None, _reads([node], modules)
                continue
            own = [*node.decorator_list, *node.bases, *node.keywords]
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not _dunder(item.name):
                    defs[f"{key}.{item.name}"] = item.name, key, _reads([item], modules)
                else:
                    own.append(item)
            defs[key] = node.name, None, _reads(own, modules)
    reached = set()
    while True:
        new = {
            key
            for key, (name, owner, _) in defs.items()
            if key not in reached and name in read and (owner is None or owner in reached)
        }
        if not new:
            return sorted(defs.keys() - reached)
        reached |= new
        for key in new:
            read |= defs[key][2]


@pytest.mark.parametrize(
    "source,roots,flagged",
    [
        ("def main():\n    helper()\ndef helper(): pass\ndef orphan(): pass\n",
         ("main",), ["m.orphan"]),
        # Reached only through a method of a reached class.
        ("class C:\n    def run(self):\n        return helper()\ndef helper(): pass\nC().run()\n",
         (), []),
        # Reached only through a module-level table.
        ("def row(): pass\nTABLE = {'row': row}\n", (), []),
        # A name in a docstring, or in a string, is not read.
        ('def f():\n    """Calls g, like h."""\n    return "h"\n'
         "def g(): pass\ndef h(): pass\nf()\n", (), ["m.g", "m.h"]),
        # A method of a class nothing reaches is unreached, whoever reads its name.
        ("class C:\n    def run(self): pass\nx.run()\n", (), ["m.C", "m.C.run"]),
        # A method nothing names is unreached; a dunder method runs unnamed.
        ("class C:\n    def __mul__(self, o):\n        return helper()\n"
         "    def unused(self): pass\ndef helper(): pass\nC()\n", (), ["m.C.unused"]),
        # An attribute of an imported module reaches no method of that name.
        ("import os\nclass C:\n    def truncate(self): pass\nC()\nos.truncate('f', 0)\n",
         (), ["m.C.truncate"]),
    ],
)
def test_reachability_scan(source, roots, flagged):
    assert unreached({"m": source}, roots) == flagged


# Not reached from the CLI, and kept in the package by name.
KEEP = (
    "coeff_C",  # the exact reader of series._dwork_difference
    "sweep",  # the library's generator of sweep rows, as the README shows
    "max_root",  # the maximal root of a canonical map, for certify --root max
    "ps_pow",  # a public helper for roots s^(1/V), and the tests' oracle
    "ps_revert",  # the inverse mirror map z(q), for the instanton numbers
    "dwork_criterion",  # Dwork's criterion at one prime, public by the north star
    "vp_rational",  # the valuation of an exact rational, public by the north star
    "canonical_q",  # the map max_root reads, until certify --root max reads it
)
CLI = ("main", "console_main")


def package_sources():
    package = Path(mirrorint.__file__).parent
    return {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}


def test_every_definition_has_a_caller():
    # A check the tests compare against lives in tests/oracles.py.
    assert unreached(package_sources(), (*CLI, *KEEP)) == []


def test_keep_holds_only_what_the_cli_does_not_reach():
    names = {key.rpartition(".")[2] for key in unreached(package_sources(), CLI)}
    assert set(KEEP) <= names, set(KEEP) - names


def test_harmonic_submodule_is_the_module():
    # The package binds no function over the submodule's name.
    assert harmonic_module.__name__ == "mirrorint.harmonic"


def _module_bindings(body):
    # The names a module's statements bind by assignment, through
    # if/try/with/loops; class and function bodies bind their own names.
    for node in body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_bindings(getattr(node, field, []))


def unread_constants(sources, roots):
    """The names each module of ``sources`` (module name -> source) binds at
    module level by assignment that no module reads, as a name or an
    attribute, and ``roots`` does not list. Dunders are exempt."""
    bound = set()
    read = set(roots)
    for module, source in sources.items():
        tree = ast.parse(source)
        bound |= {
            (module, name) for name in _module_bindings(tree.body) if not _dunder(name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in bound if name not in read)


@pytest.mark.parametrize(
    "source,roots,flagged",
    [
        ("X = 1\nY = 2\nprint(X)\n", (), ["m.Y"]),
        ("X: int = 1\nA, (B, C) = 1, (2, 3)\nf(A, C)\n", (), ["m.B", "m.X"]),
        # Listed in the roots (mirrorint.__all__); a dunder runs unnamed.
        ("X = 1\n__version__ = '1'\n", ("X",), []),
        # Read in a function, as an attribute, or by the next assignment.
        ("X = 1\ndef f():\n    return X\n", (), []),
        ("X = 1\nm.X\n", (), []),
        ("X = 1\nY = (X,)\nf(Y)\n", (), []),
        # A store, an augmented one included, is not a read, nor is a
        # string or a docstring.
        ("X = 1\nX = 2\nY = 0\nY += 1\n", (), ["m.X", "m.Y"]),
        ('"""Uses X."""\nX = 1\ny = "X"\n', (), ["m.X", "m.y"]),
        # Bound under if/try at module level; not in a function or class.
        ("try:\n    X = 1\nexcept E:\n    X = 2\nif c:\n    Y = 1\n", (), ["m.X", "m.Y"]),
        ("def f():\n    x = 1\nclass C:\n    y = 1\nf(C)\n", (), []),
    ],
)
def test_unread_constant_scan(source, roots, flagged):
    assert unread_constants({"m": source}, roots) == flagged


def test_every_constant_has_a_reader():
    assert unread_constants(package_sources(), mirrorint.__all__) == []


def unused_imports(source):
    """The names one module's source imports and never reads as a name. A
    `from __future__` import binds nothing to read, and a name listed in
    the module's __all__ is read by every `import *`."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(_names(t, "__all__") for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted(imported - read)


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("import os\nimport sys\nsys.exit()\n", ["os"]),
        ("import os.path\nos.path.join()\n", []),
        ("import numpy as np\n", ["np"]),
        ("from a import b, c as d\nd()\n", ["b"]),
        ("from __future__ import annotations\n", []),
        # Listed in __all__: read by every `import *`.
        ("from .m import f, g\n__all__ = ['f']\n", ["g"]),
        # Read in a function, a default or an annotation.
        ("from m import f, g, T\ndef h(x: T = g):\n    return f\n", []),
        # An attribute, a string or a docstring is not a read, nor is a store.
        ('"""Uses f."""\nfrom m import f, g\nx.f\ny = "g"\n', ["f", "g"]),
        ("from m import f\nf = 1\n", ["f"]),
        # An import inside a function counts too.
        ("def h():\n    import json\n", ["json"]),
    ],
)
def test_unused_import_scan(source, flagged):
    assert unused_imports(source) == flagged


@pytest.mark.parametrize(
    "path",
    sorted([*Path(mirrorint.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_no_module_imports_dataclasses():
    found = {
        name
        for name, source in package_sources().items()
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
    }
    assert found == set()


def test_cli_imports_neither_dataclasses_nor_inspect():
    # In a fresh interpreter, as each command starts.
    env = dict(os.environ)
    src = str(Path(mirrorint.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys\nimport mirrorint.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _sieve_run():
    run = SieveRun(3, 10)
    return list(run), run


# One record of each type as the CLI builds it, with its repr and its
# to_json() document, which must not change.
RECORD_PINS = {
    "PrimeFactor": (
        lambda: omega(3).factors[0],
        "PrimeFactor(p=2, exponent=-1, indicator=1, branch='valuation')",
        {"p": 2, "e": -1, "indicator": 1, "branch": "valuation"},
    ),
    "Breakdown": (
        lambda: xi(4),
        "Breakdown(N=4, factors=(PrimeFactor(p=2, exponent=-2, indicator=1, "
        "branch='valuation'), PrimeFactor(p=3, exponent=-1, indicator=0, "
        "branch='valuation')), product=Fraction(1, 12), special_case=False)",
        {
            "N": 4,
            "product": "1/12",
            "factors": [
                {"p": 2, "e": -2, "indicator": 1, "branch": "valuation"},
                {"p": 3, "e": -1, "indicator": 0, "branch": "valuation"},
            ],
            "special_case": False,
        },
    ),
    "RootPrime": (
        lambda: max_root(canonical_q("qN", 2, order=10)).primes[0],
        "RootPrime(p=2, exponent=1, witness=1)",
        {"p": 2, "e": 1, "witness": 1},
    ),
    "RootCertificate": (
        lambda: max_root(canonical_q("qN", 2, order=10)),
        "RootCertificate(order=10, primes=(RootPrime(p=2, exponent=1, witness=1),), "
        "V=2, status='certified', degenerate=False)",
        {
            "order": 10,
            "primes": [{"p": 2, "e": 1, "witness": 1}],
            "V": "2",
            "status": "certified",
            "degenerate": False,
        },
    ),
    "DecompositionCheck": (
        lambda: DecompositionCheck(2, F(1, 2), F(1, 2), F(1, 3)),
        "DecompositionCheck(r=2, lhs=Fraction(1, 2), rhs=Fraction(1, 2), "
        "rhs_next=Fraction(1, 3))",
        None,
    ),
    "RootSharpnessProbe": (
        lambda: vp3_probe(11, 848),
        "RootSharpnessProbe(p=11, N=848, harmonic_valuation=3, achieved=87, required=88)",
        None,
    ),
    "Sweep": (
        lambda: SWEEPS["lemma12"],
        "Sweep(keys='K N a j k p', defaults={'p': (2, 3, 5), 'Nmax': 5, 'kmax': 2, "
        f"'jmax': 6, 'Kmax': 8}}, rows={SWEEPS['lemma12'].rows!r}, variants=(), "
        "required=(), validate=None)",
        None,
    ),
    "SieveRecord": (
        lambda: _sieve_run()[0][1],
        "SieveRecord(p=3, N=7, v=1, v_at_least=False, target='H')",
        {"p": 3, "N": 7, "v": 1, "v_at_least": False, "target": "H"},
    ),
    "SieveCheckpoint": (
        lambda: _sieve_run()[1].checkpoint(),
        "SieveCheckpoint(p=3, target='H', backend='modular', last_N=10, "
        "state={'queue': [7]}, out_offset=None)",
        {
            "format_version": 4,
            "p": 3,
            "target": "H",
            "backend": "modular",
            "last_N": 10,
            "state": {"queue": [7]},
            "out_offset": None,
            "digest": "67cdecb2439f2fc34c8dbf995ab0a0f88175df854db7abecd5d93b7eb5a0f4cf",
        },
    ),
}


@pytest.mark.parametrize("name", RECORD_PINS)
def test_record_keeps_its_repr_json_and_fields(name):
    build, text, doc = RECORD_PINS[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text
    if doc is not None:
        # Key order too: `constants --table` prints a breakdown's document as a dict.
        assert list(record.to_json().items()) == list(doc.items())
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@given(st.integers(0, 120), st.integers(0, 120), st.data())
@settings(max_examples=30, deadline=None)
def test_mutated_harmonic_table_leaves_the_next_call_exact(n, n2, data):
    h, _ = harmonic_scaled(range(n + 1))
    h[data.draw(st.integers(0, n))] += 1
    h[n + 1] = 1
    h, S = harmonic_scaled(range(n2 + 1))
    H = accumulate((F(1, i) for i in range(1, n2 + 1)), initial=F(0))
    assert [F(h[i], S) for i in range(n2 + 1)] == list(H) and len(h) == n2 + 1


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 15), st.integers(0, 15), st.data())
@settings(max_examples=30, deadline=None)
def test_mutated_B_row_leaves_the_next_call_exact(N, k, m_max, m_max2, data):
    row = big_B_sequence(N, k, m_max)
    row[data.draw(st.integers(0, m_max))] += 1
    row.append(1)
    assert big_B_sequence(N, k, m_max2) == [big_B(N, k, m) for m in range(m_max2 + 1)]


@pytest.mark.parametrize(
    "check,params",
    [
        ("theorem-congruence", {"p": (2, 3), "Nmax": 3, "kmax": 1, "summax": 8}),
        ("dworkS", {"p": (2, 3), "Nmax": 2, "kmax": 1, "Kmax": 3, "smax": 1}),
        ("yms", {"p": (3,), "Nmax": 2, "kmax": 2, "Kmax": 3, "smax": 1}),
        ("decomposition", {"p": (2, 3), "Nmax": 2, "kmax": 1, "Kmax": 2}),
        ("decomposition", {"p": (3,), "K": 2, "Nmax": 3}),
        ("lemma11", {"p": (2, 3), "Nmax": 3, "kmax": 1, "mmax": 3, "smax": 1}),
        ("lemma12", {"p": (2, 3), "Nmax": 2, "kmax": 1, "jmax": 2, "Kmax": 2}),
        ("lemma12", {"p": (3,), "Nmax": 2, "kmax": 1, "jmax": 0, "Kmax": 3}),
        ("j-mod-p", {"pmax": 13, "Jmax": 40}),
        ("witness", {"Nmax": 4, "pmax": 13, "which": "u"}),
        ("wolstenholme", {"pmin": 3, "pmax": 60}),
        ("vp3-probe", {"p": (11,), "N": 848}),
        ("coeff-c", {"p": (3, 5), "N": 7, "mmax": 30}),
        ("lemma11", {"p": (5,), "Nmax": 5, "kmax": 1, "mmax": 20, "smax": 2, "which": "Omega"}),
    ],
)
def test_one_table_per_block(monkeypatch, check, params):
    # Tables are counted at congruences.harmonic_scaled and, for those built
    # under scaled_weights (through congruences or series), at
    # harmonic.harmonic_scaled: at most one per (p, N) point of the grid,
    # and exactly one for j-mod-p. big_B_sequence and _required_vp run at
    # most once per (p, N, k) point. A lemma11 table holds at most the four
    # entries of each (m, s), and its weights the two levels.
    calls = {
        "harmonic_scaled": 0, "scaled_weights": 0, "big_B_sequence": 0, "_required_vp": 0
    }
    tables, weights = [], []
    for name in calls:
        def counting(*args, name=name, build=getattr(congruences, name)):
            calls[name] += 1
            built = build(*args)
            if name == "harmonic_scaled":
                tables.append(len(built[0]))
            if name == "scaled_weights":
                weights.append(len(built[0]))
            return built

        monkeypatch.setattr(congruences, name, counting)

    def counting_under_weights(stops):
        built = harmonic_scaled(stops)
        tables.append(len(built[0]))
        return built

    monkeypatch.setattr(harmonic_module, "harmonic_scaled", counting_under_weights)
    assert list(sweep(check, **params))
    pN, pNk = outer_points(check, params)
    assert len(tables) <= pN, (calls, tables, pN)
    assert max(calls["big_B_sequence"], calls["_required_vp"]) <= pNk, (calls, pNk)
    if check == "j-mod-p":
        assert len(tables) == 1
    if check == "lemma11":
        points = (params["mmax"] + 1) * (params["smax"] + 1)
        assert max(tables) <= 4 * points, tables
        assert max(weights) <= 2 * points, weights


def outer_points(check, params):
    """The numbers of (p, N) and of (p, N, k) points of a sweep's grid. A
    grid without p, N or k counts one value for it; N starts at 2 under the
    shifted variants."""
    grid = {**SWEEPS[check].defaults, **params}
    start = 2 if grid.get("which") in ("Omega", "u") else 1
    Ns = max(grid["Nmax"] - start + 1, 0) if "Nmax" in grid else 1
    pN = len(grid.get("p", (None,))) * Ns
    return pN, pN * grid.get("kmax", 1)
