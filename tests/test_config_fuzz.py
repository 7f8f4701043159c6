"""Mutated builtin configs end in an exit code, never in a traceback.

Each example takes one builtin config and deletes one key at any depth,
replaces one leaf with a value of the wrong type, or truncates the JSON text,
then runs `fracasym solve` on it at 32 steps.  A document that does not load
must be reported as exactly one `config error:` line.
"""

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fracasym import catalog, cli, harness
from fracasym.errors import ConfigError

BUILTIN_TEXTS = {ident: resources.files("fracasym.configs").joinpath(f"{ident}.json")
                 .read_text() for ident in catalog.builtin_config_ids()}


def _entries(node, prefix=()):
    """(path, value) of every entry below node, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,), value
        yield from _entries(value, prefix + (key,))


def _container(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_texts(draw):
    text = BUILTIN_TEXTS[draw(st.sampled_from(sorted(BUILTIN_TEXTS)))]
    mutation = draw(st.sampled_from(["delete", "replace", "truncate"]))
    if mutation == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    entries = list(_entries(doc))
    if mutation == "delete":
        path = draw(st.sampled_from(
            [p for p, _ in entries if isinstance(_container(doc, p), dict)]))
        del _container(doc, path)[path[-1]]
    else:
        path = draw(st.sampled_from(
            [p for p, v in entries if not isinstance(v, (dict, list))]))
        _container(doc, path)[path[-1]] = draw(st.sampled_from(["abc", None, [], {}]))
    return json.dumps(doc)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(mutated_texts())
def test_mutated_builtin_config_ends_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text)
        try:
            harness.load_config(path)
            loads = True
        except ConfigError:
            loads = False
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["solve", str(path), "--n-steps", "32", "--out-dir", tmp])
    assert code in (0, 1, 2)
    if not loads:
        lines = err.getvalue().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("config error:")
